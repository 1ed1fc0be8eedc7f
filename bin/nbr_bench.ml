(* Command-line interface to the reproduction harness.

   Run single experiments or ad-hoc trials with tunable parameters:

     nbr_bench list
     nbr_bench figure fig3a,fig4c --quick
     nbr_bench figure all
     nbr_bench trial --scheme nbr+ --structure dgt-tree --threads 32 \
       --range 65536 --ins 50 --del 50 --duration-ms 2 --cores 16
     nbr_bench trial --runtime native --scheme debra --structure lazy-list \
       --threads 4 --duration-ms 500
     nbr_bench micro --quick --runtime both --out-dir bench-out
     nbr_bench check BENCH_native.json bench-out/BENCH_native.json *)

open Cmdliner

module Sim = Nbr_runtime.Sim_rt
module Nat = Nbr_runtime.Native_rt
module H_sim = Nbr_workload.Harness.Make (Sim)
module H_nat = Nbr_workload.Harness.Make (Nat)
module T = Nbr_workload.Trial
module E = Nbr_workload.Experiments

(* Command-line errors exit 2 (not cmdliner's 124), like every other
   request nbr_bench refuses. *)
let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success.";
      info 1 ~doc:"when a run fails validation, or $(b,check) fails its gate.";
      info 2 ~doc:"on bad command-line input or an unreadable file.";
    ]

(* ---------------- list ---------------- *)

let list_cmd =
  let doc = "List available experiments (one per paper table/figure)." in
  Cmd.v (Cmd.info "list" ~doc ~exits)
    Term.(
      const (fun () ->
          List.iter
            (fun (id, d, _) -> Printf.printf "%-18s %s\n" id d)
            E.all)
      $ const ())

(* ---------------- figure ---------------- *)

let figure_cmd =
  let ids_arg =
    Arg.(
      required
      & pos 0 (some (list string)) None
      & info [] ~docv:"ID[,ID...]"
          ~doc:"Experiment ids (see $(b,list)), or $(b,all).")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller, faster profile.")
  in
  let run ids quick =
    let known id = List.exists (fun (i, _, _) -> i = id) E.all in
    (match List.filter (fun id -> id <> "all" && not (known id)) ids with
    | [] -> ()
    | bad ->
        Printf.eprintf "unknown experiment %s (known: all, %s)\n"
          (String.concat ", " bad)
          (String.concat ", " (List.map (fun (i, _, _) -> i) E.all));
        exit 2);
    let selected =
      if List.mem "all" ids then E.all
      else List.filter (fun (id, _, _) -> List.mem id ids) E.all
    in
    Printf.printf
      "# NBR reproduction benchmarks (%s profile)\n\
       # Simulated 16-core machine; throughput in simulated Mops/s.\n\
       # Shapes (ordering, crossovers, bounded-vs-unbounded memory) are what \
       reproduce\n\
       # the paper; absolute numbers do not — see DESIGN.md / EXPERIMENTS.md.\n\
       %!"
      (if quick then "quick" else "standard");
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (id, descr, run) ->
        Printf.printf "\n=== %s: %s ===\n%!" id descr;
        let t = Unix.gettimeofday () in
        (match run quick with
        | () -> ()
        | exception Nbr_pool.Pool.Exhausted x ->
            (* An undersized pool (or the leaky scheme running long enough)
               is a diagnosable configuration problem, not a crash: report
               it and let the remaining experiments run. *)
            Format.printf "[%s ABORTED] %a@." id Nbr_pool.Pool.pp_exhausted x;
            E.note_failure
              (Printf.sprintf "%s: pool exhausted (capacity %d)" id
                 x.Nbr_pool.Pool.x_capacity));
        Printf.printf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t))
      selected;
    let ok = E.summary () in
    Printf.printf "[total %.1fs]\n%!" (Unix.gettimeofday () -. t0);
    if not ok then exit 1
  in
  let doc =
    "Regenerate paper figures/tables, in $(b,list) order; exits 1 on any \
     validation failure."
  in
  Cmd.v (Cmd.info "figure" ~doc ~exits) Term.(const run $ ids_arg $ quick_arg)

(* ---------------- trial ---------------- *)

let trial_cmd =
  let scheme =
    Arg.(
      value
      & opt string "nbr+"
      & info [ "scheme" ] ~docv:"S"
          ~doc:
            ("Reclamation scheme: "
            ^ String.concat ", " Nbr_workload.Registry.scheme_names
            ^ "."))
  in
  let structure =
    Arg.(
      value
      & opt string "dgt-tree"
      & info [ "structure" ] ~docv:"D"
          ~doc:
            ("Data structure: "
            ^ String.concat ", " Nbr_workload.Registry.structure_names
            ^ "."))
  in
  let runtime =
    Arg.(
      value
      & opt string "sim"
      & info [ "runtime" ] ~doc:"Execution runtime: sim or native.")
  in
  let threads =
    Arg.(value & opt int 16 & info [ "threads" ] ~doc:"Worker threads.")
  in
  let cores =
    Arg.(value & opt int 16 & info [ "cores" ] ~doc:"Simulated cores (sim).")
  in
  let granularity =
    Arg.(
      value & opt int 1
      & info [ "granularity" ]
          ~doc:"Sim cycles between scheduler yields (1 = every access).")
  in
  let quantum =
    Arg.(
      value & opt int 200_000
      & info [ "quantum" ] ~doc:"Sim time-slice length in cycles.")
  in
  let range =
    Arg.(value & opt int 16384 & info [ "range" ] ~doc:"Key range.")
  in
  let ins = Arg.(value & opt int 25 & info [ "ins" ] ~doc:"Insert %.") in
  let del = Arg.(value & opt int 25 & info [ "del" ] ~doc:"Delete %.") in
  let duration_ms =
    Arg.(
      value & opt int 2
      & info [ "duration-ms" ]
          ~doc:"Trial duration in ms (virtual for sim, wall for native).")
  in
  let threshold =
    Arg.(
      value & opt int 512
      & info [ "bag-threshold" ] ~doc:"Limbo bag HiWatermark.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let stall_ms =
    Arg.(
      value & opt int 0
      & info [ "stall-ms" ]
          ~doc:"Stall thread 1 inside an operation for this long (E2).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:"Install the standard seeded chaos plan (2 stalls, 1 crash, \
                25% delayed signals), arming the watchdog/recovery layer.")
  in
  let churn =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"N"
          ~doc:"Dynamic membership: workers (except thread 0) deregister \
                and rejoin every N completed ops.  0 = static.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Record the full event trace and write it as Chrome \
                trace-event JSON (Perfetto-loadable).")
  in
  let reclaim =
    Arg.(
      value & opt string "none"
      & info [ "reclaim" ] ~docv:"POLICY"
          ~doc:"Background reclaimer policy: none (inline reclamation), \
                pressure (watermark-kicked), periodic:NS (sweep every NS \
                nanoseconds), after:N (sweep every N collected retires).")
  in
  let pressure_chaos =
    Arg.(
      value & flag
      & info [ "pressure-chaos" ]
          ~doc:"Install the memory-pressure adversary (chaos plus \
                allocation hogs and a reclaimer stall + crash-with-restart \
                schedule).  Implies a reclaimer; combines with \
                $(b,--reclaim) to pick its policy (default pressure).")
  in
  let run scheme structure runtime threads cores granularity quantum range
      ins del duration_ms threshold seed stall_ms chaos churn trace_out
      reclaim pressure_chaos =
    let duration_ns = duration_ms * 1_000_000 in
    if not (Nbr_workload.Registry.supported ~scheme ~structure) then
      invalid_arg
        (Printf.sprintf
           "%s cannot run %s safely: its protection cannot cover \
            traversals through unlinked records (paper P5)"
           scheme structure);
    let reclaim =
      match
        (Nbr_reclaim.Reclaimer.policy_of_string reclaim, pressure_chaos)
      with
      | None, true -> Some Nbr_reclaim.Reclaimer.On_pressure
      | p, _ -> p
    in
    let stall =
      if stall_ms > 0 then
        Some { T.stall_tid = 1; stall_ns = stall_ms * 1_000_000 }
      else None
    in
    let faults =
      if pressure_chaos then
        Some
          (Nbr_fault.Fault_plan.pressure_chaos ~seed ~nthreads:threads
             ~stalls:1 ~crashes:1 ~hogs:2 ~hog_slots:1024
             ~stall_ns:(duration_ns / 8) ~ops_window:100
             ~reclaimer_stall_ns:(duration_ns / 8)
             ~restart_ns:(duration_ns / 4) ())
      else if chaos then
        Some
          (Nbr_fault.Fault_plan.chaos ~seed ~nthreads:threads ~stalls:2
             ~crashes:1 ~stall_ns:(duration_ns / 2) ~ops_window:100
             ~signal:
               {
                 Nbr_fault.Fault_plan.delay_pct = 25;
                 delay_ns = 20_000;
                 drop_pct = 0;
               }
             ())
      else None
    in
    (match faults with
    | Some p -> Format.printf "%a@." Nbr_fault.Fault_plan.pp p
    | None -> ());
    let trace_threads =
      if reclaim <> None then threads + 1 else threads
    in
    if trace_out <> None then
      Nbr_obs.Trace.enable ~capacity:65536 ~nthreads:trace_threads ();
    let cfg =
      T.Cfg.make ~nthreads:threads ~duration_ns ~key_range:range ~ins_pct:ins
        ~del_pct:del
        ~smr:
          (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default
             threshold)
        ~seed ?stall ?faults ~churn_ops:churn ?reclaim ()
    in
    let r =
      match runtime with
      | "sim" ->
          Sim.set_config
            { Sim.default_config with cores; seed; granularity; quantum };
          H_sim.run ~scheme ~structure cfg
      | "native" -> H_nat.run ~scheme ~structure cfg
      | other ->
          Printf.eprintf "unknown runtime %s\n" other;
          exit 2
    in
    (match trace_out with
    | None -> ()
    | Some file ->
        let events, dropped = Nbr_obs.Trace.write_chrome_json file in
        Printf.printf "trace: %d events -> %s (%d dropped)\n" events file
          dropped;
        Nbr_obs.Trace.clear ());
    Format.printf "%a@." T.pp_row r;
    Format.printf
      "ops=%d freed=%d retired=%d reclaim_events=%d lo_reclaims=%d \
       final_in_use=%d materialized=%d/%d uaf=%d size=%d/%d valid=%b@."
      r.T.total_ops (Nbr_core.Smr_stats.freed r.T.smr_stats) (Nbr_core.Smr_stats.retires r.T.smr_stats)
      (Nbr_core.Smr_stats.reclaim_events r.T.smr_stats) (Nbr_core.Smr_stats.lo_reclaims r.T.smr_stats) r.T.final_in_use
      r.T.materialized r.T.cfg.T.pool_capacity
      r.T.uaf_reads r.T.final_size r.T.expected_size (T.valid r);
    if not (T.valid r) then exit 1
  in
  let doc = "Run one ad-hoc trial with explicit parameters." in
  Cmd.v (Cmd.info "trial" ~doc ~exits)
    Term.(
      const run $ scheme $ structure $ runtime $ threads $ cores
      $ granularity $ quantum $ range $ ins $ del $ duration_ms $ threshold
      $ seed $ stall_ms $ chaos $ churn $ trace_out $ reclaim
      $ pressure_chaos)

(* ---------------- micro, check ---------------- *)

let micro_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer iterations per bench.")
  in
  let runtime =
    Arg.(
      value
      & opt (enum [ ("native", `Native); ("sim", `Sim); ("both", `Both) ]) `Both
      & info [ "runtime" ] ~doc:"Runtime(s) to bench: native, sim or both.")
  in
  let out_dir =
    Arg.(
      value & opt dir "."
      & info [ "out-dir" ] ~docv:"D" ~doc:"Directory for BENCH_<runtime>.json.")
  in
  let alloc_only =
    Arg.(
      value & flag
      & info [ "alloc-only" ] ~doc:"Run only the pool alloc/free benches.")
  in
  let doc =
    "Run the hot-path micro-benchmarks and write BENCH_<runtime>.json."
  in
  Cmd.v (Cmd.info "micro" ~doc ~exits)
    Term.(
      const (fun quick runtime out_dir alloc_only ->
          Micro.run ~quick ~runtime ~out_dir ~alloc_only)
      $ quick $ runtime $ out_dir $ alloc_only)

let check_cmd =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  let doc =
    "Regression gate: exit 1 if a gated key of BASELINE is missing from \
     CURRENT or more than 2x its baseline value, 2 if a file is unreadable."
  in
  Cmd.v (Cmd.info "check" ~doc ~exits)
    Term.(
      const (fun b c -> Stdlib.exit (Micro.check b c))
      $ file 0 "BASELINE" $ file 1 "CURRENT")

(* ---------------- main ---------------- *)

let () =
  let doc = "NBR (PPoPP'21) reproduction benchmarks" in
  let info = Cmd.info "nbr_bench" ~version:"1.0.0" ~doc ~exits in
  (* [~catch:false] so pool exhaustion reaches us instead of cmdliner's
     generic backtrace: it is an expected outcome of undersized trials
     (or of running the leaky scheme long enough), not a crash. *)
  let cmds = [ list_cmd; figure_cmd; trial_cmd; micro_cmd; check_cmd ] in
  match Cmd.eval ~catch:false (Cmd.group info cmds) with
  | code when code = Cmd.Exit.cli_error -> exit 2
  | code -> exit code
  | exception Nbr_pool.Pool.Exhausted x ->
      Format.eprintf
        "nbr_bench: %a@.hint: raise the trial's pool capacity, shorten its \
         duration, or pick a reclaiming scheme (this is the expected failure \
         mode of scheme=none).@."
        Nbr_pool.Pool.pp_exhausted x;
      exit 1
  | exception Invalid_argument msg ->
      (* e.g. an unknown scheme/structure name reaching the harness *)
      Format.eprintf "nbr_bench: %s@." msg;
      exit 2
