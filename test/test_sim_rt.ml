(* Unit tests for the simulated-multicore runtime: scheduling,
   determinism, virtual time, signal delivery and checkpoint semantics. *)

module Sim = Nbr_runtime.Sim_rt

let with_config ?(cores = 4) ?(granularity = 1) ?(jitter = 8) ?(seed = 1)
    ?(ghz = Sim.default_config.ghz) f =
  let saved = Sim.get_config () in
  Sim.set_config
    { Sim.default_config with cores; granularity; jitter; seed; ghz };
  Fun.protect ~finally:(fun () -> Sim.set_config saved) f

let test_runs_all_threads () =
  with_config (fun () ->
      let hits = Array.make 8 0 in
      Sim.run ~nthreads:8 (fun tid -> hits.(tid) <- hits.(tid) + 1);
      Alcotest.(check (list int))
        "each thread ran once" (List.init 8 (fun _ -> 1))
        (Array.to_list hits))

let test_atomics_interleave () =
  with_config (fun () ->
      (* n threads × k increments via CAS loop = exactly n*k. *)
      let c = Sim.make 0 in
      Sim.run ~nthreads:6 (fun _ ->
          for _ = 1 to 500 do
            let rec incr () =
              let v = Sim.load c in
              if not (Sim.cas c v (v + 1)) then incr ()
            in
            incr ()
          done);
      Alcotest.(check int) "cas total" 3000 (Sim.load c))

let test_faa_xchg () =
  with_config (fun () ->
      let c = Sim.make 0 in
      Sim.run ~nthreads:4 (fun _ ->
          for _ = 1 to 1000 do
            ignore (Sim.faa c 2)
          done);
      Alcotest.(check int) "faa total" 8000 (Sim.load c);
      let d = Sim.make 5 in
      Sim.run ~nthreads:1 (fun _ ->
          Alcotest.(check int) "xchg returns old" 5 (Sim.xchg d 9));
      Alcotest.(check int) "xchg stored" 9 (Sim.load d))

let test_determinism () =
  let trace () =
    with_config ~seed:42 (fun () ->
        let c = Sim.make 0 in
        let order = ref [] in
        Sim.run ~nthreads:5 (fun tid ->
            for _ = 1 to 50 do
              ignore (Sim.faa c 1);
              order := tid :: !order
            done);
        (!order, Sim.load c))
  in
  let a = trace () and b = trace () in
  Alcotest.(check bool) "identical schedules" true (a = b)

let test_virtual_time_advances () =
  with_config (fun () ->
      let final = ref 0 in
      Sim.run ~nthreads:1 (fun _ ->
          let t0 = Sim.now_ns () in
          let c = Sim.make 0 in
          for _ = 1 to 1000 do
            ignore (Sim.load c)
          done;
          final := Sim.now_ns () - t0);
      Alcotest.(check bool)
        (Printf.sprintf "1000 loads cost >0 virtual ns (got %d)" !final)
        true (!final > 0))

let test_stall_advances_clock () =
  with_config (fun () ->
      let elapsed = ref 0 in
      Sim.run ~nthreads:1 (fun _ ->
          let t0 = Sim.now_ns () in
          Sim.stall_ns 5_000_000;
          elapsed := Sim.now_ns () - t0);
      Alcotest.(check bool)
        (Printf.sprintf "stall >= 5ms (got %d)" !elapsed)
        true
        (!elapsed >= 5_000_000))

let test_signal_restarts_restartable () =
  with_config (fun () ->
      (* Thread 1 loops in a checkpointed restartable section; thread 0
         signals it; thread 1 must observe a restart. *)
      let restarts = ref 0 in
      let flag = Sim.make 0 in
      Sim.run ~nthreads:2 (fun tid ->
          if tid = 0 then begin
            while Sim.load flag = 0 do
              Sim.cpu_relax ()
            done;
            Sim.send_signal 1;
            Sim.store flag 2
          end
          else begin
            let attempts = ref 0 in
            Sim.checkpoint (fun () ->
                incr attempts;
                Sim.set_restartable_t tid true;
                if Sim.load flag = 0 then Sim.store flag 1;
                (* Wait in restartable mode until the signal arrives;
                   the replay sees flag = 2 and falls straight through. *)
                while Sim.load flag <> 2 do
                  Sim.cpu_relax ()
                done;
                Sim.set_restartable_t tid false);
            restarts := !attempts - 1
          end);
      Alcotest.(check bool)
        (Printf.sprintf "restarted at least once (%d)" !restarts)
        true (!restarts >= 1))

let test_signal_ignored_when_non_restartable () =
  with_config (fun () ->
      let finished = ref false in
      Sim.run ~nthreads:2 (fun tid ->
          if tid = 0 then Sim.send_signal 1
          else begin
            Sim.set_restartable_t tid false;
            let c = Sim.make 0 in
            for _ = 1 to 200 do
              ignore (Sim.load c)
            done;
            finished := true
          end);
      Alcotest.(check bool) "non-restartable thread unharmed" true !finished)

let test_signals_counted () =
  with_config (fun () ->
      Sim.run ~nthreads:4 (fun tid ->
          if tid = 0 then
            for t = 1 to 3 do
              Sim.send_signal t
            done);
      Alcotest.(check int) "3 signals" 3 (Sim.signals_sent ()))

let test_checkpoint_nesting () =
  with_config (fun () ->
      (* An inner checkpoint absorbs the neutralization; the outer one
         never replays (k-NBR: restart innermost read phase only). *)
      let outer = ref 0 and inner = ref 0 in
      let ready = Sim.make 0 and finished = Sim.make 0 in
      Sim.run ~nthreads:2 (fun tid ->
          if tid = 0 then begin
            while Sim.load ready = 0 do
              Sim.cpu_relax ()
            done;
            Sim.send_signal 1;
            Sim.store finished 1
          end
          else
            Sim.checkpoint (fun () ->
                incr outer;
                Sim.set_restartable_t tid false;
                Sim.checkpoint (fun () ->
                    incr inner;
                    Sim.set_restartable_t tid true;
                    if Sim.load finished = 0 then begin
                      Sim.store ready 1;
                      while Sim.load finished = 0 do
                        Sim.cpu_relax ()
                      done
                    end;
                    Sim.set_restartable_t tid false)));
      Alcotest.(check int) "outer ran once" 1 !outer;
      Alcotest.(check bool)
        (Printf.sprintf "inner restarted (%d)" !inner)
        true (!inner >= 2))

let test_exception_propagates () =
  with_config (fun () ->
      Alcotest.check_raises "worker exception surfaces" (Failure "boom")
        (fun () -> Sim.run ~nthreads:3 (fun tid ->
             if tid = 2 then failwith "boom")))

let test_oversubscription_slows_wall_clock () =
  (* With 2 cores and 8 threads, per-thread wall time for the same work
     should exceed the 2-thread case (time-slice waiting). *)
  let run_threads n =
    let worst = ref 0 in
    with_config ~cores:2 ~jitter:0 (fun () ->
        Sim.run ~nthreads:n (fun _ ->
            let c = Sim.make 0 in
            (* Enough work to cross several scheduling quanta. *)
            for _ = 1 to 300_000 do
              ignore (Sim.load c)
            done;
            worst := max !worst (Sim.now_ns ())));
    !worst
  in
  let t2 = run_threads 2 and t8 = run_threads 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads on 2 cores slower per-thread (t2=%d t8=%d)" t2
       t8)
    true (t8 > t2)

let test_stuck_watchdog () =
  with_config (fun () ->
      Sim.set_max_events 1_000;
      Fun.protect
        ~finally:(fun () -> Sim.set_max_events 0)
        (fun () ->
          match
            Sim.run ~nthreads:1 (fun _ ->
                let c = Sim.make 0 in
                while true do
                  ignore (Sim.load c)
                done)
          with
          | () -> Alcotest.fail "expected Stuck"
          | exception Sim.Stuck _ -> ()))

(* Cost parity between a standalone cell and an element of a cell array.
   One access script walks a cell through every coherence state the cost
   model distinguishes — fresh, owned by the accessor, shared after a
   remote read, owned by a remote writer — with every access verb, one
   access per [run] so each recorded clock is exactly that access's
   charge (jitter 0, 1 cycle per ns).  Both kinds of cell must give the
   same values and clocks, and those clocks must be the cost model's. *)
type op =
  | Load
  | Plain
  | Store of int
  | Cas of int * int
  | Faa of int
  | Xchg of int

let test_cell_cost_parity () =
  let c = Sim.default_config in
  let script =
    [
      (0, Plain, c.c_plain_load);
      (0, Load, c.c_load);
      (0, Store 1, c.c_store);
      (0, Load, c.c_load);
      (0, Plain, c.c_plain_load);
      (0, Cas (1, 2), c.c_atomic);
      (0, Faa 3, c.c_atomic);
      (0, Xchg 10, c.c_atomic);
      (1, Load, c.c_load + c.c_miss);
      (1, Plain, c.c_plain_load);
      (0, Load, c.c_load);
      (0, Store 11, c.c_store + c.c_miss);
      (1, Cas (11, 12), c.c_atomic + c.c_miss);
      (0, Faa 1, c.c_atomic + c.c_miss);
      (1, Xchg 20, c.c_atomic + c.c_miss);
      (0, Plain, c.c_plain_load + c.c_miss);
      (1, Cas (0, 1), c.c_atomic + c.c_miss);
    ]
  in
  let apply a = function
    | Load -> Sim.load a
    | Plain -> Sim.plain_load a
    | Store v ->
        Sim.store a v;
        v
    | Cas (e, d) -> Bool.to_int (Sim.cas a e d)
    | Faa d -> Sim.faa a d
    | Xchg v -> Sim.xchg a v
  in
  let play a =
    List.map
      (fun (who, op, _) ->
        let got = ref (0, 0) in
        Sim.run ~nthreads:2 (fun tid ->
            if tid = who then begin
              let v = apply a op in
              got := (v, Sim.now_ns ())
            end);
        !got)
      script
  in
  with_config ~jitter:0 ~ghz:1.0 (fun () ->
      let cells = Sim.make_cells 3 7 in
      let standalone = play (Sim.make 7) in
      let pooled = play (Sim.cell cells 1) in
      Alcotest.(check (list (pair int int)))
        "same values and clocks" standalone pooled;
      Alcotest.(check (list int))
        "clocks are the cost model's"
        (List.map (fun (_, _, cost) -> cost) script)
        (List.map snd pooled);
      Alcotest.(check (list int))
        "neighbouring cells untouched" [ 7; 7 ]
        [ Sim.load (Sim.cell cells 0); Sim.load (Sim.cell cells 2) ])

let suite =
  [
    Alcotest.test_case "runs all threads" `Quick test_runs_all_threads;
    Alcotest.test_case "cas interleaving" `Quick test_atomics_interleave;
    Alcotest.test_case "faa and xchg" `Quick test_faa_xchg;
    Alcotest.test_case "deterministic given seed" `Quick test_determinism;
    Alcotest.test_case "virtual time advances" `Quick test_virtual_time_advances;
    Alcotest.test_case "stall advances clock" `Quick test_stall_advances_clock;
    Alcotest.test_case "signal restarts restartable thread" `Quick
      test_signal_restarts_restartable;
    Alcotest.test_case "signal ignored when non-restartable" `Quick
      test_signal_ignored_when_non_restartable;
    Alcotest.test_case "signals counted" `Quick test_signals_counted;
    Alcotest.test_case "checkpoint nesting (k-NBR)" `Quick
      test_checkpoint_nesting;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "oversubscription slows wall clock" `Quick
      test_oversubscription_slows_wall_clock;
    Alcotest.test_case "stuck watchdog fires" `Quick test_stuck_watchdog;
    Alcotest.test_case "cell array costs like a standalone cell" `Quick
      test_cell_cost_parity;
  ]
