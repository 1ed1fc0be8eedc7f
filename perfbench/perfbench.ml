(* The repository benchmark.  One invocation runs one workload:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   and prints, as its last stdout line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, measured on the bare stack; with
   --trace 1 they are the per-layer ones, measured with the Layers
   wrappers on, plus the tracing overhead against an untraced repetition
   of the same run.  Every repetition checks the program's outputs and
   the process exits 1 on any violation.  README.md explains the
   workloads and metrics. *)

module Sim = Nbr_runtime.Sim_rt
module Trial = Nbr_workload.Trial
module Traffic = Nbr_workload.Traffic
module Stats = Nbr_core.Smr_stats
module W = Layers.Window

(* ------------------------------------------------------------------ *)
(* Statistics.                                                          *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile of a sorted sample. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let per x n = if n = 0 then 0.0 else float x /. float n
let mean a = per (Array.fold_left ( + ) 0 a) (Array.length a)

(* ------------------------------------------------------------------ *)
(* Checks: every violation is recorded and fails the run.              *)

let violations = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg -> if not ok then violations := msg :: !violations)
    fmt

(* ------------------------------------------------------------------ *)
(* One repetition: set-up, then the window, in a fresh child process.  *)

(* What one repetition reports, whichever the workload. *)
type rep = {
  ops : int;  (** operations or requests completed in the window *)
  attempted : int;
  failed : int;
  setup_ns : int;
  run_ns : int;  (** wall time of the window *)
  heap_mb : float;  (** the repetition's major-heap high-water mark *)
  virtual_mops : float;  (** completed per second of the runtime clock *)
  mean_us : float;
  tail_us : float;
  goodput : float;
  peak_garbage : int;
  signature : int list;
      (** virtual outputs and counts: equal for every simulated
          repetition of one seed, traced or not *)
  gc : (string * float) list;
}

let heap_mb () = float ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.0
let ops_per_s x = float x.ops /. (float x.run_ns /. 1e9)

let gc_counts ops =
  [
    ("gc.minor_words_per_op", per !W.minor_words ops);
    ("gc.minor_collections_per_kop", per (1000 * !W.minor_collections) ops);
  ]

(* Run [f] in a forked child and return its result, with the checks it
   failed.  Each repetition thus starts from a fresh heap: in one
   long-lived process the major heap fragments from one repetition to
   the next (this OCaml does not compact), and window times on an
   unchanged workload drifted by up to 1.8x. *)
let isolated (f : unit -> 'a) : 'a =
  flush stdout;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      violations := [];
      let v =
        match f () with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (v, !violations) [];
      close_out oc;
      flush stdout;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let got =
        match (Marshal.from_channel ic : ('a, string) result * string list) with
        | x -> Some x
        | exception End_of_file -> None
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match got with
      | Some (v, vs) -> (
          violations := vs @ !violations;
          match v with
          | Ok v -> v
          | Error e -> failwith ("repetition raised " ^ e))
      | None -> failwith "repetition died")

(* Repeat [rep] until [seconds] have passed, at least three times: the
   set-up time is the best of several. *)
let repeat ~seconds rep =
  let t0 = Unix.gettimeofday () in
  let rec go acc i =
    if i >= 3 && Unix.gettimeofday () -. t0 >= float seconds then List.rev acc
    else begin
      let x = isolated rep in
      Printf.printf
        "rep %d: set-up %.3f s, window %.3f s, %.0f ops/s, latency mean %.3f \
         us, tail %.3f us\n"
        i
        (float x.setup_ns /. 1e9)
        (float x.run_ns /. 1e9)
        (ops_per_s x) x.mean_us x.tail_us;
      go (x :: acc) (i + 1)
    end
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let emit ~attempted ~failed metrics =
  List.iter
    (fun (name, unit_, v) -> Printf.printf "  %-36s %16.6f %s\n" name v unit_)
    metrics;
  List.iter (Printf.printf "VIOLATION: %s\n") (List.rev !violations);
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float v) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!violations = []) attempted failed body;
  exit (if !violations = [] then 0 else 1)

(* The per-layer metrics, in output order.  Entries a workload's path
   does not reach are reported as 0; README.md lists which workload
   measures which. *)
let layer_names =
  [
    ("runtime.accesses_per_op", "count");
    ("runtime.atomics_per_op", "count");
    ("runtime.signals_per_op", "count");
    ("runtime.polls_per_op", "count");
    ("runtime.wall_ns_per_access", "ns");
    ("pool.allocs_per_op", "count");
    ("pool.depot_exchanges_per_op", "count");
    ("pool.peak_in_use", "count");
    ("pool.pressure_events", "count");
    ("scheme.guarded_reads_per_op", "count");
    ("scheme.self_ns_per_op", "ns");
    ("scheme.restarts_per_op", "count");
    ("scheme.phase_success_ratio", "ratio");
    ("scheme.retires_per_op", "count");
    ("scheme.freed_per_retire", "ratio");
    ("scheme.reclaim_events", "count");
    ("scheme.handshake_timeouts", "count");
    ("ds.self_ns_per_op.insert", "ns");
    ("ds.self_ns_per_op.delete", "ns");
    ("gc.minor_words_per_op", "count");
    ("gc.minor_collections_per_kop", "count");
    ("kv.shed_pct", "%");
    ("kv.timed_out_pct", "%");
    ("kv.retries", "count");
    ("kv.breaker_opens", "count");
    ("kv.brownouts", "count");
    ("kv.accesses_per_request", "count");
    ("kv.restarts_per_request", "count");
    ("trace.overhead_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Layer metrics common to the workloads.                              *)

let runtime_counts ops (rt : Layers.rt_counts) =
  [
    ("runtime.accesses_per_op", per rt.accesses ops);
    ("runtime.atomics_per_op", per rt.atomics ops);
    ("runtime.signals_per_op", per rt.signals ops);
    ("runtime.polls_per_op", per rt.polls ops);
  ]

let thread_sum f = Array.fold_left (fun acc th -> acc + f th) 0 !Layers.threads

let each_span f =
  Array.iter
    (fun (th : Layers.thread) ->
      for i = 0 to th.nspans - 1 do
        f th i (i * Layers.span_width)
      done)
    !Layers.threads

(* Self times from the spans: a structure op's self time is its span
   minus the scheme time inside it. *)
let span_counts ops =
  let n = Array.make 3 0 and ds = Array.make 3 0 and sch = ref 0 in
  each_span (fun th _ b ->
      let s = th.spans in
      let k = s.(b) land 3 in
      n.(k) <- n.(k) + 1;
      ds.(k) <- ds.(k) + (s.(b + 2) - s.(b + 1) - s.(b + 3));
      sch := !sch + s.(b + 3));
  [
    ("scheme.guarded_reads_per_op", per (thread_sum (fun th -> th.guarded)) ops);
    ("scheme.self_ns_per_op", per !sch ops);
    ( "scheme.phase_success_ratio",
      per
        (thread_sum (fun th -> th.completed))
        (thread_sum (fun th -> th.attempts)) );
    ("ds.self_ns_per_op.insert", per ds.(1) n.(1));
    ("ds.self_ns_per_op.delete", per ds.(2) n.(2));
  ]

let smr_counts ops st =
  [
    ("scheme.restarts_per_op", per (Stats.restarts st) ops);
    ("scheme.retires_per_op", per (Stats.retires st) ops);
    ("scheme.freed_per_retire", per (Stats.freed st) (Stats.retires st));
    ("scheme.reclaim_events", float (Stats.reclaim_events st));
    ("scheme.handshake_timeouts", float (Stats.handshake_timeouts st));
  ]

(* Spans of a traced repetition, kept in memory and written after it:
   the window, then per structure operation one span and one for its
   scheme calls aggregated, tab-separated: id, parent, name, tid,
   start_ns, end_ns, ns (all on the runtime clock; an aggregated span
   carries its op's bounds and the summed time of its calls). *)
let write_spans ~workload =
  let dir = ".bench_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (workload ^ "-spans.tsv") in
  let oc = open_out path in
  let w0 = ref max_int and w1 = ref 0 in
  each_span (fun th _ b ->
      w0 := min !w0 th.spans.(b + 1);
      w1 := max !w1 th.spans.(b + 2));
  output_string oc "id\tparent\tname\ttid\tstart_ns\tend_ns\tns\n";
  Printf.fprintf oc "window\t-\trt.run\t-\t%d\t%d\t%d\n" !w0 !w1 (!w1 - !w0);
  each_span (fun th i b ->
      let s = th.spans in
      let t0 = s.(b + 1) and t1 = s.(b + 2) in
      Printf.fprintf oc "op%d.%d\twindow\tds.%s%s\t%d\t%d\t%d\t%d\n" th.tid i
        Layers.kind_names.(s.(b) land 3)
        (if s.(b) land 4 <> 0 then ".failed" else "")
        th.tid t0 t1 (t1 - t0);
      Printf.fprintf oc "op%d.%d.s\top%d.%d\tscheme\t%d\t%d\t%d\t%d\n" th.tid
        i th.tid i th.tid t0 t1 s.(b + 3));
  close_out oc;
  Printf.printf "spans written to %s\n" path

(* ------------------------------------------------------------------ *)
(* A workload: its untraced and traced repetitions.                    *)

(* Both workloads run in the simulator, so every output but wall time
   is a function of the seed: repetitions of one seed must agree, traced
   or not. *)
module type WORKLOAD = sig
  val name : string
  val plain : int -> rep

  val traced : int -> rep * (string * float) list * int
  (** The repetition, its layer metrics and its runtime access count;
      writes the spans. *)
end

let e2e_names =
  [
    ("virtual_mops", "Mops/s");
    ("latency_mean_us", "us");
    ("latency_tail_us", "us");
    ("goodput_pct", "%");
    ("peak_garbage", "records");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

(* A repetition that raised or died leaves nothing to measure: the run
   fails, with every metric reported as 0. *)
let guarded names f =
  try f ()
  with Failure msg ->
    check false "%s" msg;
    emit ~attempted:1 ~failed:1 (List.map (fun (n, u) -> (n, u, 0.0)) names)

let same_virtual a b =
  a.signature = b.signature
  && a.virtual_mops = b.virtual_mops
  && a.goodput = b.goodput

let end_to_end (module X : WORKLOAD) ~seed ~seconds =
  guarded e2e_names @@ fun () ->
  let reps = repeat ~seconds (fun () -> X.plain seed) in
  let x = List.hd reps in
  List.iter
    (fun y ->
      check
        (same_virtual x y && y.mean_us = x.mean_us && y.tail_us = x.tail_us)
        "%s: repetitions of seed %d diverged" X.name seed)
    reps;
  let sum f = List.fold_left (fun a x -> a + f x) 0 reps in
  (* Set-up is wall time, and other tenants of the host only ever slow
     it down, in phases of seconds to minutes that stretch all work by
     up to 2x: the fastest set-up is the steadiest estimate of what the
     code costs. *)
  let setup =
    List.fold_left (fun a y -> min a (float y.setup_ns /. 1e9)) infinity reps
  in
  emit
    ~attempted:(sum (fun x -> x.attempted))
    ~failed:(sum (fun x -> x.failed))
    (List.map2
       (fun (n, u) v -> (n, u, v))
       e2e_names
       [
         x.virtual_mops;
         x.mean_us;
         x.tail_us;
         x.goodput;
         float x.peak_garbage;
         median (List.map (fun y -> y.heap_mb) reps);
         setup;
       ])

let traced (module X : WORKLOAD) ~seed ~seconds =
  guarded layer_names @@ fun () ->
  (* Untraced and traced repetitions in pairs until [seconds] have
     passed, at least two pairs. *)
  let t0 = Unix.gettimeofday () in
  let rec pairs acc i =
    if i >= 2 && Unix.gettimeofday () -. t0 >= float seconds then List.rev acc
    else begin
      let u = isolated (fun () -> X.plain seed) in
      let t, layers, accesses = isolated (fun () -> X.traced seed) in
      Printf.printf "pair %d: untraced %.0f ops/s, traced %.0f ops/s\n" i
        (ops_per_s u) (ops_per_s t);
      pairs ((u, t, layers, accesses) :: acc) (i + 1)
    end
  in
  let ps = pairs [] 0 in
  let u0, _, layers, accesses = List.hd ps in
  (* The wrappers must not perturb the schedule: every traced run
     reproduces the untraced virtual outputs, and the first traced run's
     layer metrics, which are counts and simulated times. *)
  List.iter
    (fun (u, t, l, _) ->
      check
        (same_virtual t u && same_virtual u u0)
        "%s: a traced run's virtual outputs differ from the untraced run's"
        X.name;
      check (l = layers) "%s: traced runs of seed %d gave different counts"
        X.name seed)
    ps;
  let measured =
    layers @ u0.gc
    @ [
        (* The sim core's speed: the fastest untraced window's wall time
           per simulated shared-memory access. *)
        ( "runtime.wall_ns_per_access",
          per
            (List.fold_left (fun a (u, _, _, _) -> min a u.run_ns) max_int ps)
            accesses );
        ( "trace.overhead_pct",
          median
            (List.map
               (fun (u, t, _, _) -> 100.0 *. ((ops_per_s u /. ops_per_s t) -. 1.0))
               ps) );
      ]
  in
  let sum f = List.fold_left (fun a (u, t, _, _) -> a + f u + f t) 0 ps in
  emit
    ~attempted:(sum (fun x -> x.attempted))
    ~failed:(sum (fun x -> x.failed))
    (List.map
       (fun (name, unit_) ->
         ( name,
           unit_,
           match List.assoc_opt name measured with Some v -> v | None -> 0.0 ))
       layer_names)

(* ------------------------------------------------------------------ *)
(* sim-e1-tree: the paper's E1 cell through the figures' trial runner. *)

module E1 : WORKLOAD = struct
  let name = "sim-e1-tree"
  let nthreads = 64

  (* fig3a's 64-thread, 50i-50d cell at the standard profile's 1.6 ms.
     The pool holds 4x the key range (the peak in use is ~95K records)
     instead of the trial default's 1.2M slots: the virtual outputs are
     identical, and set-up and heap shrink by 2.5x and 4x. *)
  let cfg seed =
    Trial.Cfg.make ~nthreads ~duration_ns:1_600_000 ~key_range:65_536
      ~ins_pct:50 ~del_pct:50
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 512)
      ~seed
      ~pool_capacity:262_144 ()

  (* Checks a finished trial and reports it; [lat] is the sorted
     virtual latency record, empty in traced runs. *)
  let rep seed (r : Trial.result) lat =
    let st = r.smr_stats in
    check (Trial.valid r) "%s seed %d: size %d expected %d, uaf reads %d" name
      seed r.final_size r.expected_size r.uaf_reads;
    check (Stats.committed_uaf st = 0) "%s: %d committed UAF" name
      (Stats.committed_uaf st);
    check
      (Stats.reclaim_events st >= 1 && Stats.freed st >= 1)
      "%s: reclamation not live in the window (events %d, freed %d)" name
      (Stats.reclaim_events st) (Stats.freed st);
    {
      ops = r.total_ops;
      attempted = r.total_ops;
      failed = 0;
      setup_ns = W.setup_ns ();
      run_ns = W.run_ns ();
      heap_mb = heap_mb ();
      virtual_mops = r.throughput_mops;
      mean_us = mean lat /. 1000.0;
      tail_us = float (quantile lat 0.99) /. 1000.0;
      goodput = 100.0;
      peak_garbage = r.peak_garbage;
      signature =
        [
          r.total_ops;
          r.peak_garbage;
          r.signals;
          Stats.retires st;
          Stats.freed st;
          Stats.reclaim_events st;
          Stats.restarts st;
          r.final_size;
        ];
      gc = gc_counts r.total_ops;
    }

  let start seed =
    Sim.set_config { Nbr_workload.Experiments.base_sim_config with seed };
    W.begin_setup ()

  module Rt = Layers.Bound (Sim)
  module Smr = Nbr_core.Nbr_plus.Make (Rt)
  module Ds = Layers.Ds_timed (Rt) (Smr) (Nbr_ds.Dgt_bst.Make (Rt) (Smr))
  module R = Nbr_workload.Runner.Make (Rt) (Smr) (Ds)

  let plain seed =
    Layers.Latency.reset ~nthreads;
    start seed;
    let r = R.run (cfg seed) in
    let lat = Layers.Latency.samples () in
    Array.sort compare lat;
    rep seed r lat

  module Rt_t = Layers.Counted (Sim)
  module Smr_t = Layers.Smr_traced (Rt_t) (Nbr_core.Nbr_plus.Make (Rt_t))

  module Ds_t =
    Layers.Ds_traced (Rt_t) (Smr_t) (Nbr_ds.Dgt_bst.Make (Rt_t) (Smr_t))

  module R_t = Nbr_workload.Runner.Make (Rt_t) (Smr_t) (Ds_t)
  module P_t = Nbr_pool.Pool.Make (Rt_t)

  let traced seed =
    Layers.rt_reset ();
    (* The runner builds its pool internally: snapshot its stats as the
       window opens, read them again after. *)
    let p0 = ref None in
    W.on_start := (fun () -> p0 := Option.map P_t.stats !Smr_t.last_pool);
    start seed;
    let r = R_t.run (cfg seed) in
    let x = rep seed r [||] in
    let rt = Layers.rt_totals () in
    let ops = r.total_ops in
    let pool =
      match (!p0, !Smr_t.last_pool) with
      | Some s0, Some p ->
          let s1 = P_t.stats p in
          [
            ("pool.allocs_per_op", per (s1.s_allocs - s0.P_t.s_allocs) ops);
            ( "pool.depot_exchanges_per_op",
              per (s1.s_depot_exchanges - s0.s_depot_exchanges) ops );
            ("pool.peak_in_use", float s1.s_peak_in_use);
            ( "pool.pressure_events",
              float (s1.s_pressure_events - s0.s_pressure_events) );
          ]
      | _ -> []
    in
    write_spans ~workload:name;
    ( x,
      runtime_counts ops rt @ pool @ span_counts ops
      @ smr_counts ops r.smr_stats,
      rt.accesses )
end

(* ------------------------------------------------------------------ *)
(* kv-flash-sim: the serving pipeline under an open-loop flash crowd.  *)

module Kv_run (Rt : Layers.RT) = struct
  module Svc = Nbr_kv.Service.Make (Rt)

  let name = "kv-flash-sim"

  (* Per-worker base rate: about half the configuration's closed-loop
     capacity (4.1M requests per worker per simulated second), so the
     8x crowd offers four times what the shards serve. *)
  let rate = 2_000_000

  (* The repetition and the service's report. *)
  let run seed =
    Sim.set_config { Nbr_workload.Experiments.base_sim_config with seed };
    W.begin_setup ();
    (* A 64-record bag threshold: with 16 workers x 8 shards of limbo
       bags, the default 512 never fills inside the window. *)
    let st =
      Svc.St.create
        (Svc.St.Cfg.make ~structure:"hash-set" ~nshards:8 ~keyspace:65_536
           ~smr:
             (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default
                64)
           ~scheme:"nbr+" ~nthreads:16 ())
    in
    let traffic =
      Traffic.make ~theta:0.99 ~mx:Traffic.write_heavy
        ~shape:
          (Traffic.Flash_crowd { fc_at_pct = 40; fc_len_pct = 20; fc_mult = 8 })
        ~rate_rps:rate ~keyspace:65_536 ()
    in
    let r =
      Svc.run st
        (Svc.Cfg.make ~duration_ns:2_000_000 ~seed ~prefill:32_768
           ~guard:(Nbr_kv.Guard.Cfg.make ~deadline_ns:100_000 ())
           ~traffic ())
    in
    let x = r.rep_stats and slo = r.rep_slo in
    check (Nbr_kv.Service.valid r)
      "%s seed %d: size %d expected %d, uaf %d, committed uaf %d" name seed
      x.st_size r.rep_expected_size x.st_uaf_reads x.st_committed_uaf;
    check (Nbr_kv.Service.slo_ok r)
      "%s: ledger broken (admitted %d, completed %d, shed %d, timed out %d)"
      name slo.slo_admitted slo.slo_completed slo.slo_shed slo.slo_timed_out;
    check (Nbr_kv.Service.bounded_ok r) "%s: garbage %d over the bound %d"
      name x.st_max_garbage r.rep_garbage_bound;
    (* Liveness: NBR+ signals only from a reclamation event, and a
       shard's occupancy, whose peak was reset as the window opened, can
       end below that peak only if the shard freed records. *)
    let signals = Sim.signals_sent () in
    check
      (signals > 0 && x.st_in_use < x.st_peak_in_use)
      "%s: reclamation not live in the window (signals %d, in use %d, peak \
       %d)"
      name signals x.st_in_use x.st_peak_in_use;
    (* The service reports bucketed quantiles, which step by 2^(1/4);
       its exact statistics are the per-type means and maxima. *)
    let l = r.rep_latency in
    let hs : Nbr_obs.Histogram.summary list =
      [ l.l_get; l.l_put; l.l_del; l.l_scan ]
    in
    let n = List.fold_left (fun a h -> a + h.Nbr_obs.Histogram.s_count) 0 hs in
    let total =
      List.fold_left
        (fun a h -> a +. (h.Nbr_obs.Histogram.s_mean *. float h.s_count))
        0.0 hs
    in
    let worst = List.fold_left (fun a h -> max a h.Nbr_obs.Histogram.s_max) 0 hs in
    let completed = slo.slo_completed in
    ( {
        ops = completed;
        attempted = slo.slo_admitted;
        (* Shed and timed-out requests are the guard's deliberate
           refusals, counted by [goodput]; a request fails when its
           execution hits pool exhaustion. *)
        failed = slo.slo_exhausted;
        setup_ns = W.setup_ns ();
        run_ns = W.run_ns ();
        heap_mb = heap_mb ();
        virtual_mops = r.rep_throughput_kops /. 1000.0;
        mean_us = (if n = 0 then 0.0 else total /. float n /. 1000.0);
        tail_us = float worst /. 1000.0;
        goodput = Nbr_kv.Guard.goodput_pct slo;
        peak_garbage = x.st_peak_garbage;
        signature =
          [
            slo.slo_admitted;
            completed;
            slo.slo_shed;
            slo.slo_timed_out;
            slo.slo_retries;
            x.st_peak_garbage;
            x.st_in_use;
            x.st_size;
            x.st_restarts;
            signals;
            int_of_float total;
            worst;
          ];
        gc = gc_counts completed;
      },
      r )
end

module Kv : WORKLOAD = struct
  let name = "kv-flash-sim"

  module K = Kv_run (Layers.Bound (Sim))

  let plain seed = fst (K.run seed)

  module K_t = Kv_run (Layers.Counted (Sim))

  let traced seed =
    Layers.rt_reset ();
    let x, r = K_t.run seed in
    let rt = Layers.rt_totals () in
    let s = r.rep_slo and st = r.rep_stats in
    let ops = x.ops in
    let pct v = 100.0 *. per v s.slo_admitted in
    ( x,
      runtime_counts ops rt
      @ [
          ("pool.peak_in_use", float st.st_peak_in_use);
          ("pool.pressure_events", float st.st_pressure_events);
          ("scheme.restarts_per_op", per st.st_restarts ops);
          ("scheme.handshake_timeouts", float st.st_handshake_timeouts);
          ("kv.shed_pct", pct s.slo_shed);
          ("kv.timed_out_pct", pct s.slo_timed_out);
          ("kv.retries", float s.slo_retries);
          ("kv.breaker_opens", float s.slo_opens);
          ("kv.brownouts", float s.slo_brownouts);
          ("kv.accesses_per_request", per rt.accesses ops);
          ("kv.restarts_per_request", per st.st_restarts ops);
        ],
      rt.accesses )
end

(* ------------------------------------------------------------------ *)
(* Command line.                                                        *)

let workloads : (string * (module WORKLOAD)) list =
  [
    ("sim-e1-tree", (module E1));
    ("kv-flash-sim", (module Kv));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of: " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1: per-layer run with the wrappers on");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
  | Some w ->
      if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds
      else end_to_end w ~seed:!seed ~seconds:!seconds
