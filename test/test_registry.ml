(* The figure lineups against the scheme registry: every scheme and
   structure a figure names must exist, and the sweeps meant to cover
   every scheme (chaos, churn) must name each sound scheme exactly once,
   so a newly registered scheme fails here until those sweeps run it. *)

module E = Nbr_workload.Experiments
module Reg = Nbr_workload.Registry

let sweeps =
  List.concat_map (fun (_, (_, sweeps)) -> sweeps) E.throughput_figures

let test_lineups_name_registered_schemes () =
  let check where schemes =
    List.iter
      (fun s ->
        if Reg.find s = None then
          Alcotest.failf "%s names unknown scheme %s" where s)
      schemes
  in
  List.iter (fun (name, schemes) -> check ("lineup " ^ name) schemes) E.lineups;
  List.iter (fun (s : E.sweep) -> check s.title s.schemes) sweeps

let test_sweeps_name_registered_structures () =
  List.iter
    (fun (s : E.sweep) ->
      if not (List.mem s.structure Reg.structure_names) then
        Alcotest.failf "%s sweeps unknown structure %s" s.title s.structure)
    sweeps;
  List.iter
    (fun (id, _) ->
      if not (List.exists (fun (i, _, _) -> i = id) E.all) then
        Alcotest.failf "throughput figure %s is not a listed experiment" id)
    E.throughput_figures

let test_fault_sweeps_cover_every_scheme () =
  List.iter
    (fun (name, schemes) ->
      Alcotest.(check (list string))
        (name ^ " runs every sound scheme once")
        (List.sort compare Reg.scheme_names)
        (List.sort compare schemes))
    [ ("chaos", E.chaos_schemes); ("churn", E.churn_schemes) ]

let suite =
  [
    Alcotest.test_case "lineups name registered schemes" `Quick
      test_lineups_name_registered_schemes;
    Alcotest.test_case "sweeps name registered structures" `Quick
      test_sweeps_name_registered_structures;
    Alcotest.test_case "chaos and churn cover every scheme" `Quick
      test_fault_sweeps_cover_every_scheme;
  ]
