(* Native-runtime tests: the library on real OCaml domains.

   The container may have a single core, so parallelism is time-sliced;
   these runs still exercise real atomics, real cross-domain signal
   counters, and the polling neutralization protocol end to end. *)

module Nat = Nbr_runtime.Native_rt
module H = Nbr_workload.Harness.Make (Nat)
module T = Nbr_workload.Trial

let run ~scheme ~structure =
  let cfg =
    T.Cfg.make ~nthreads:4 ~duration_ns:200_000_000 ~key_range:128
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 48)
      ~seed:5 ()
  in
  H.run ~scheme ~structure cfg

let check ~scheme ~structure () =
  let r = run ~scheme ~structure in
  if r.T.final_size <> r.T.expected_size then
    Alcotest.failf "%s/%s: size %d expected %d" scheme structure
      r.T.final_size r.T.expected_size;
  if r.T.total_ops < 100 then
    Alcotest.failf "%s/%s: too few ops (%d)" scheme structure r.T.total_ops

let test_runtime_basics () =
  let c = Nat.make 0 in
  Nat.run ~nthreads:4 (fun _ ->
      for _ = 1 to 10_000 do
        ignore (Nat.faa c 1)
      done);
  Alcotest.(check int) "faa across domains" 40_000 (Nat.load c)

let test_signal_counters () =
  let seen = Atomic.make 0 in
  Nat.run ~nthreads:2 (fun tid ->
      if tid = 0 then Nat.send_signal 1
      else begin
        (* Poll until the signal lands; consume it while restartable to
           observe Neutralized. *)
        Nat.checkpoint (fun () ->
            Nat.set_restartable_t tid true;
            let deadline = Nat.now_ns () + 2_000_000_000 in
            (try
               while Nat.now_ns () < deadline do
                 Nat.poll_t tid
               done
             with Nat.Neutralized ->
               Nat.set_restartable_t tid false;
               Atomic.incr seen);
            Nat.set_restartable_t tid false)
      end);
  Alcotest.(check int) "neutralization delivered" 1 (Atomic.get seen)

let combos =
  [
    ("nbr", "lazy-list");
    ("nbr+", "dgt-tree");
    ("nbr+", "harris-list");
    ("debra", "ab-tree");
    ("hp", "lazy-list");
    ("ibr", "dgt-tree");
  ]

(* ------------------------------------------------------------------ *)
(* Sim/native parity stress: the same workload must satisfy the same
   invariants under both runtimes.  Set semantics and bounded garbage are
   runtime-independent; zero reads-of-freed is exact only under the sim's
   instantaneous delivery (natively the benign poll window of DESIGN.md §3
   can count reads that are then thrown away by the restart). *)

module Sim = Nbr_runtime.Sim_rt
module HS = Nbr_workload.Harness.Make (Sim)

let bounded_schemes = [ "nbr"; "nbr+"; "ibr"; "hp"; "he" ]

let check_parity ~scheme ~structure () =
  let cfg =
    T.Cfg.make ~nthreads:4 ~duration_ns:100_000_000 ~key_range:128
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 48)
      ~seed:11 ()
  in
  let bound = T.garbage_bound cfg in
  let check_one (r : T.result) =
    if not (T.valid r) then
      Alcotest.failf "%s/%s (%s): invalid (size %d expected %d, uaf %d)"
        scheme structure r.T.runtime r.T.final_size r.T.expected_size
        r.T.uaf_reads;
    (* Per-thread buffered-garbage high-water mark, like the E2 chaos
       suite: the bound caps each thread's limbo buffer, not the pool-wide
       sum across threads. *)
    let mg = Nbr_core.Smr_stats.max_garbage r.T.smr_stats in
    if List.mem scheme bounded_schemes && mg > bound then
      Alcotest.failf "%s/%s (%s): max_garbage %d exceeds bound %d" scheme
        structure r.T.runtime mg bound
  in
  let rs = HS.run ~scheme ~structure cfg in
  check_one rs;
  Alcotest.(check int)
    (Printf.sprintf "%s/%s sim uaf_reads" scheme structure)
    0 rs.T.uaf_reads;
  check_one (H.run ~scheme ~structure cfg)

(* Chunk installation under real domains: four domains allocate from a
   fresh pool across many chunk boundaries at once, so they race to
   materialise the same chunks.  Each tags its handles with its index in
   a data field; after the join every handle must be valid, distinct and
   read back its own tag — a chunk installed twice, or a handle minted
   into a chunk another domain cannot see, fails one of the three. *)
module NP = Nbr_pool.Pool.Make (Nat)

let test_chunk_install_race () =
  let nd = 4 and per = 6 * NP.chunk_slots in
  let p =
    NP.create ~capacity:(nd * per) ~data_fields:1 ~ptr_fields:1 ~nthreads:nd
      ()
  in
  let got = Array.make_matrix nd per NP.nil in
  Nat.run ~nthreads:nd (fun tid ->
      let mine = got.(tid) in
      for j = 0 to per - 1 do
        let h = NP.alloc p in
        NP.set_data p h 0 ((tid * per) + j);
        mine.(j) <- h
      done);
  let seen = Hashtbl.create (nd * per) in
  Array.iteri
    (fun tid mine ->
      Array.iteri
        (fun j h ->
          if not (NP.valid p h) then Alcotest.failf "handle %d invalid" h;
          if Hashtbl.mem seen h then Alcotest.failf "handle %d twice" h;
          Hashtbl.add seen h ();
          Alcotest.(check int) "reads back its tag" ((tid * per) + j)
            (NP.get_data p h 0))
        mine)
    got;
  Alcotest.(check int) "every chunk materialised" (nd * per)
    (NP.class_stats p 0).NP.k_materialized;
  Alcotest.(check int) "no stale access" 0 (NP.stats p).NP.s_uaf_reads

let parity_combos =
  [
    ("nbr", "lazy-list");
    ("nbr+", "dgt-tree");
    ("ibr", "lazy-list");
    ("hp", "lazy-list");
    ("he", "dgt-tree");
  ]

let suite =
  [
    Alcotest.test_case "atomics across domains" `Quick test_runtime_basics;
    Alcotest.test_case "signal delivery via polling" `Quick
      test_signal_counters;
    Alcotest.test_case "pool chunk install race" `Quick
      test_chunk_install_race;
  ]
  @ List.map
      (fun (scheme, structure) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s on domains" scheme structure)
          `Slow
          (check ~scheme ~structure))
      combos
  @ List.map
      (fun (scheme, structure) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s sim/native parity" scheme structure)
          `Slow
          (check_parity ~scheme ~structure))
      parity_combos
