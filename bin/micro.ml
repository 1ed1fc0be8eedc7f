(* Hot-path micro-benchmarks, the suite behind [nbr_bench micro] and
   [nbr_bench check].

   Where [nbr_bench figure] reproduces the paper's figures, this suite
   tracks the *repository's own* hot paths over time, so regressions are
   visible in CI and improvements land as numbers, not adjectives.  It
   measures, per runtime (native wall-clock ns / sim virtual ns):

   - read_path_1t/<scheme>   guarded-dereference cost: ns per [contains]
                             on a 200-key lazy list, single thread
   - read_path_mt/<scheme>   the same at several threads (E1-style
                             contention on the read path)
   - signal_all/n<k>         one signalAll broadcast to k-1 polling victims
   - alloc_free              pool alloc+free fast path, single thread
   - trial_mops/...          runner-level wall-clock trials (native only):
                             the full harness, real domains, real time
   - latency_*               per-operation latency quantiles (p50/p99) from
                             one harness trial with [record_latency] on, plus
                             restarts-per-op quantiles
   - kv_*                    serving-layer service times: get/put p50/p99 and
                             mean ns/request from one closed-loop KV run
                             (nbr+ over hash-set shards); regression-gated
   - calib/list_walk_ns      native only: the read-path search over a plain
                             OCaml list, running no repository code

   [run] writes BENCH_<runtime>.json into its output directory; on the
   native runtime each gated key is the median of several samples.
   [check] is the regression gate: a pure comparison of two such files. *)

module T = Nbr_workload.Trial

(* ------------------------------------------------------------------ *)
(* Result accumulation and JSON.                                       *)

let results : (string * float) list ref = ref []
let record k v = results := (k, v) :: !results

(* The median of a key's samples (the upper one of an even count). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Calibration walk for the native gate: ns per search of a plain
   100-element OCaml list, probed like the lazy-list read path (keys
   0, 2, ..., 198, probe [i * 7 mod 200]) but running no repository
   code, so [check] can divide the host's speed out of the ns keys
   without dividing out a slowdown in the code under test. *)
let calib_key = "calib/list_walk_ns"
let walk_list = List.init 100 (fun i -> 2 * i)

let list_walk_ns () =
  let rec mem k = function
    | (x : int) :: rest when x < k -> mem k rest
    | x :: _ -> x = k
    | [] -> false
  in
  let iters = 50_000 in
  let t0 = Nbr_runtime.Native_rt.now_ns () in
  for i = 1 to iters do
    ignore (Sys.opaque_identity (mem (i * 7 mod 200) walk_list))
  done;
  float_of_int (Nbr_runtime.Native_rt.now_ns () - t0) /. float_of_int iters

(* latency_<op>_{p50,p99}_ns entries (restart counts are unitless) from a
   [record_latency] trial. *)
let record_latency_entries (r : T.result) =
  match r.T.latency with
  | None -> ()
  | Some l ->
      let put name unit_sfx (s : Nbr_obs.Histogram.summary) =
        record
          (Printf.sprintf "latency_%s_p50%s" name unit_sfx)
          s.Nbr_obs.Histogram.s_p50;
        record (Printf.sprintf "latency_%s_p99%s" name unit_sfx) s.s_p99
      in
      put "insert" "_ns" l.T.lat_insert;
      put "delete" "_ns" l.T.lat_delete;
      put "contains" "_ns" l.T.lat_contains;
      put "restarts" "" l.T.lat_restarts

(* Inline vs background-reclaimer tail latency on an update-heavy trial
   (DESIGN.md §12): threshold sweeps leave the hot path, so the update
   p99/p99.9 should drop.  Published as
   reclaim_tail/<mode>/<op>_{p99,p999}_ns; new keys, not
   regression-gated. *)
let record_reclaim_tail run_trial =
  List.iter
    (fun (mode, reclaim) ->
      let r = run_trial reclaim in
      match r.T.latency with
      | None -> ()
      | Some l ->
          let put op (s : Nbr_obs.Histogram.summary) =
            record
              (Printf.sprintf "reclaim_tail/%s/%s_p99_ns" mode op)
              s.Nbr_obs.Histogram.s_p99;
            record
              (Printf.sprintf "reclaim_tail/%s/%s_p999_ns" mode op)
              s.s_p999
          in
          put "insert" l.T.lat_insert;
          put "delete" l.T.lat_delete)
    [ ("inline", None); ("reclaim", Some Nbr_reclaim.Reclaimer.On_pressure) ]

(* kv_* entries from one serving-layer run; all ns, lower is better, so
   the ratio gate applies directly (throughput is published inverted as
   mean ns per request).  The p99s ride along under the ungated "kv/"
   prefix: on the native runtime they are dominated by OS scheduling
   noise, far too volatile for a 2x gate on shared CI runners. *)
let record_kv (rep : Nbr.Kv.Service.report) =
  let g = rep.rep_latency.l_get and p = rep.rep_latency.l_put in
  record "kv_get_p50_ns" g.Nbr_obs.Histogram.s_p50;
  record "kv_put_p50_ns" p.Nbr_obs.Histogram.s_p50;
  record "kv_req_ns" (1e6 /. rep.rep_throughput_kops);
  record "kv/get_p99_ns" g.s_p99;
  record "kv/put_p99_ns" p.s_p99

(* kv_slo/* entries from one guarded flash-crowd run.  Only bounded
   percentages sit under the gated prefix: accounted_pct is pinned at
   100 by the ledger invariant and goodput_pct cannot exceed 100, so
   the 2x ratio gate trips only if the guard itself regresses.  The
   latencies and raw counts of an open-loop run are too noisy on shared
   native runners; they ride along ungated under kv/slo_*. *)
let record_kv_slo (rep : Nbr.Kv.Service.report) =
  let module G = Nbr.Kv.Guard in
  let s = rep.rep_slo in
  let accounted =
    if s.G.slo_admitted = 0 then 100.0
    else
      100.0
      *. float_of_int (s.G.slo_completed + s.G.slo_shed + s.G.slo_timed_out)
      /. float_of_int s.G.slo_admitted
  in
  record "kv_slo/accounted_pct" accounted;
  record "kv_slo/goodput_pct" (G.goodput_pct s);
  record "kv/slo_get_p999_ns" rep.rep_latency.l_get.Nbr_obs.Histogram.s_p999;
  record "kv/slo_shed" (float_of_int s.G.slo_shed);
  record "kv/slo_timed_out" (float_of_int s.G.slo_timed_out);
  record "kv/slo_retries" (float_of_int s.G.slo_retries)

(* Writes the results, echoing each entry to the console so the numbers
   are visible in CI logs without opening the JSON. *)
let write_json ~runtime ~mode ~path =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"schema\": 1,\n";
  Printf.fprintf oc "  \"runtime\": %S,\n" runtime;
  Printf.fprintf oc "  \"mode\": %S,\n" mode;
  output_string oc "  \"results\": {\n";
  let rows = List.rev !results in
  List.iteri
    (fun i (k, v) ->
      Printf.printf "  %-36s %12.1f\n" k v;
      Printf.fprintf oc "    %S: %.3f%s\n" k v
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" path (List.length rows)

(* Reads back exactly what [write_json] writes: an opening brace, header
   lines up to ["results": {], one ["key": value] line per entry, and the
   two closing braces.  Anything else raises [Failure]. *)
let read_entries path =
  let bad line = failwith (Printf.sprintf "%s: malformed line %S" path line) in
  let entry line =
    match Scanf.sscanf line "    %S: %f%s%!" (fun k v tail -> (k, v, tail)) with
    | k, v, ("" | ",") -> (k, v)
    | _ -> bad line
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> bad line
  in
  let rec results acc = function
    | [ "  }"; "}"; "" ] -> List.rev acc
    | line :: rest -> results (entry line :: acc) rest
    | [] -> failwith (path ^ ": truncated results object")
  in
  let rec header = function
    | "  \"results\": {" :: rest -> results [] rest
    | _ :: rest -> header rest
    | [] -> failwith (path ^ ": no results object")
  in
  match
    String.split_on_char '\n'
      (In_channel.with_open_text path In_channel.input_all)
  with
  | "{" :: rest -> header rest
  | _ -> failwith (path ^ ": not a bench result file")

(* ------------------------------------------------------------------ *)
(* Regression gate (CI): compare two result files.                     *)

(* "kv_" already covers "kv_slo/"; it is listed anyway so the gate's
   coverage of the overload-protection keys survives a future narrowing
   of the serving-layer prefix. *)
let guarded_prefixes =
  [ "read_path_1t/"; "read_path_mt/"; "alloc_free"; "kv_"; "kv_slo/" ]

let max_ratio = 2.0

(* Every gated BASELINE key must be in CURRENT at no more than
   [max_ratio] times its baseline value.  When both files carry the
   calibration walk, the ns keys (every gated key but the [_pct] ones)
   are compared as multiples of their own file's walk, so a host that
   runs everything slower cancels out; a baseline's walk must be in
   CURRENT too.  Returns the exit code: 0 pass, 1 a regression or a
   missing key, 2 an unreadable file or nothing to compare. *)
let check baseline current =
  match (read_entries baseline, read_entries current) with
  | exception (Failure msg | Sys_error msg) ->
      prerr_endline ("error: " ^ msg);
      2
  | base, cur ->
      let gated k =
        List.exists
          (fun prefix -> String.starts_with ~prefix k)
          guarded_prefixes
      in
      let host =
        match (List.assoc_opt calib_key base, List.assoc_opt calib_key cur) with
        | Some b, Some c ->
            Printf.printf "ns keys divided by %s: base %.1f, now %.1f\n"
              calib_key b c;
            c /. b
        | _ -> 1.0
      in
      let compared = ref 0 and failures = ref 0 in
      List.iter
        (fun (k, b) ->
          match List.assoc_opt k cur with
          | None when gated k || k = calib_key ->
              incr failures;
              Printf.printf "  %-28s MISSING from %s\n" k current
          | Some c when gated k && b > 0.0 ->
              incr compared;
              let ratio =
                if String.ends_with ~suffix:"_pct" k then c /. b
                else c /. b /. host
              in
              let flag = ratio > max_ratio in
              if flag then incr failures;
              Printf.printf "  %-28s base %10.1f  now %10.1f  x%.2f%s\n" k b c
                ratio
                (if flag then "  REGRESSION" else "")
          | _ -> ())
        base;
      Printf.printf
        "%d metrics compared against %s, %d failures (> x%.1f or missing)\n%!"
        !compared baseline !failures max_ratio;
      if !failures > 0 then 1
      else if !compared = 0 then begin
        print_endline "error: no comparable metrics found";
        2
      end
      else 0

(* ------------------------------------------------------------------ *)
(* Per-runtime profiles: what differs between the native and sim runs. *)

type profile = {
  runtime : string;  (** names the output file, BENCH_<runtime>.json *)
  clock : string;  (** what a reported ns is, for the console header *)
  samples : int;
      (** each gated key is the median of this many runs; more than one
          means a noisy clock, so each run is paired with a calibration
          walk *)
  mt : int;  (** thread count of every multi-thread bench *)
  it_1t : int;  (** iterations: read_path_1t *)
  it_mt : int;  (** read_path_mt *)
  it_sig : int;  (** signal_all *)
  it_af : int;  (** alloc_free, alloc_free/cls *)
  it_af_mt : int;  (** alloc_free_mt *)
  wall_ns : int option;
      (** duration of the runner-level wall-clock trials; [None] skips
          them (they only mean something on real domains) *)
  lat_ns : int;  (** duration of the latency trial *)
  tail_ns : int;  (** and of the reclaim-tail pair *)
  kv_ns : int;  (** duration of both serving-layer runs *)
  kv_rate_rps : int;  (** guarded flash-crowd run: per-worker rate *)
  kv_deadline_ns : int;  (** and per-request deadline *)
}

(* Wall-clock keys on a shared host vary from run to run: five samples
   per key, and the calibration walk, keep the 2x gate on real
   regressions. *)
let native_profile quick =
  let q a b = if quick then a else b in
  {
    runtime = "native";
    clock = "wall-clock ns";
    samples = 5;
    mt = 4;
    it_1t = q 20_000 200_000;
    it_mt = q 4_000 40_000;
    it_sig = q 2_000 20_000;
    it_af = q 50_000 500_000;
    it_af_mt = q 50_000 500_000;
    wall_ns = Some (q 100_000_000 500_000_000);
    lat_ns = q 50_000_000 200_000_000;
    tail_ns = q 50_000_000 200_000_000;
    (* Same duration in quick mode: the run is 100ms of wall time, and a
       shorter one over-weights warmup, skewing quick CI runs against
       the committed standard-mode baseline. *)
    kv_ns = 100_000_000;
    kv_rate_rps = 10_000;
    kv_deadline_ns = 50_000_000;
  }

(* Virtual-time results are deterministic, so one sample is exact;
   iteration counts only bound the wall cost of running the simulation
   itself. *)
let sim_profile quick =
  let q a b = if quick then a else b in
  {
    runtime = "sim";
    clock = "virtual ns, deterministic";
    samples = 1;
    mt = 8;
    it_1t = q 300 2_000;
    it_mt = q 100 500;
    it_sig = q 100 500;
    it_af = q 2_000 20_000;
    it_af_mt = q 500 5_000;
    wall_ns = None;
    lat_ns = 2_000_000;
    tail_ns = 3_000_000;
    kv_ns = 1_000_000;
    kv_rate_rps = 4_000_000;
    kv_deadline_ns = 100_000;
  }

(* ------------------------------------------------------------------ *)
(* The suite, generic in the runtime.                                  *)

module Bench (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module H = Nbr_workload.Harness.Make (Rt)
  module K = Nbr.Kv.Service.Make (Rt)

  let smr_cfg =
    Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 256

  (* Mean of the [nthreads] per-thread clocks over [iters] operations each:
     [f tid] runs one thread's [iters] operations, after an untimed
     [warm tid]. *)
  let per_op_ns ?(warm = ignore) ~nthreads ~iters f =
    let elapsed = Array.make nthreads 0 in
    Rt.run ~nthreads (fun tid ->
        warm tid;
        let t0 = Rt.now_ns () in
        f tid;
        elapsed.(tid) <- Rt.now_ns () - t0);
    float_of_int (Array.fold_left ( + ) 0 elapsed)
    /. float_of_int (nthreads * iters)

  module Read_path
      (Smr : Nbr_core.Smr_intf.S
               with type aint = Rt.aint
                and type pool = Nbr_pool.Pool.Make(Rt).t) =
  struct
    module L = Nbr_ds.Lazy_list.Make (Rt) (Smr)

    (* ns (runtime clock) per [contains] on a 200-key half-full lazy list:
       every probe walks ~50 guarded dereferences, so this is dominated by
       the per-access cost the paper's P1 discussion is about. *)
    let measure ~nthreads ~iters =
      let pool =
        P.create ~capacity:(1024 + (nthreads * 256))
          ~data_fields:L.data_fields ~ptr_fields:L.ptr_fields ~nthreads ()
      in
      let smr = Smr.create pool ~nthreads smr_cfg in
      let ds = L.create pool in
      let ctxs = Array.init nthreads (fun tid -> Smr.register smr ~tid) in
      for k = 0 to 199 do
        if k mod 2 = 0 then ignore (L.insert ds ctxs.(0) k)
      done;
      per_op_ns ~nthreads ~iters (fun tid ->
          for i = 1 to iters do
            ignore (L.contains ds ctxs.(tid) (i * 7 mod 200))
          done)
  end

  (* One measurement closure per sound scheme, driven off the registry so
     the scheme set lives in exactly one place (lib/workload/registry). *)
  let read_paths =
    List.filter_map
      (fun (e : Nbr_workload.Registry.entry) ->
        if e.r_foil then None
        else
          let module S = (val e.r_scheme : Nbr_workload.Registry.SCHEME) in
          let module RP = Read_path (S.Make (Rt)) in
          Some (e.r_name, RP.measure))
      Nbr_workload.Registry.all

  (* ns per signalAll broadcast (n-1 sends) while the victims poll: the
     sender-side cost of one NBR reclamation event. *)
  let signal_all_ns ~nthreads ~iters =
    let stop = Rt.make 0 in
    let out = ref 0.0 in
    Rt.run ~nthreads (fun tid ->
        if tid = 0 then begin
          let t0 = Rt.now_ns () in
          for _ = 1 to iters do
            for t = 1 to nthreads - 1 do
              Rt.send_signal t
            done
          done;
          out :=
            float_of_int (Rt.now_ns () - t0) /. float_of_int iters;
          Rt.store stop 1
        end
        else
          while Rt.load stop = 0 do
            Rt.poll_t tid;
            Rt.cpu_relax ()
          done);
    !out

  (* ns per alloc+free pair, each of [nthreads] threads cycling slots of
     size class [cls] through its own cache.  Single-threaded this is the
     pool fast path: no contention, no pressure.  Multi-threaded it
     measures the allocator's shared state (occupancy accounting,
     free-space hand-off), since each thread's working set is its own:
     the serialization-point number ROADMAP item 3 is about. *)
  let alloc_free_ns ?cls pool ~nthreads ~iters =
    let pair _ = P.free pool (P.alloc ?cls pool) in
    per_op_ns ~warm:pair ~nthreads ~iters (fun _ ->
        for _ = 1 to iters do
          pair ()
        done)

  let flat_pool nthreads =
    P.create ~capacity:(nthreads * 64) ~data_fields:1 ~ptr_fields:1 ~nthreads
      ()

  (* A classed pool, so the handle codec and per-class magazine routing
     are on the measured path.  The two classes differ in field shape
     (narrow list node vs wide tree node); the per-pair cost should not,
     since neither the codec nor the magazines touch the fields. *)
  let classed_pool () =
    let cls data ptr =
      { Nbr_pool.Pool.cc_capacity = 64; cc_data_fields = data;
        cc_ptr_fields = ptr }
    in
    P.create_classed ~classes:[| cls 1 1; cls 2 8 |] ~nthreads:1 ()

  (* A closed-loop read-heavy KV run against a small sharded store, so the
     recorded quantiles are service times (no queueing model), stable
     enough to regression-gate; with [guard], open-loop arrivals with
     deadlines, admission control and breakers on, so the kv_slo/*
     percentages exercise the whole overload-protection path. *)
  let keyspace = 65_536

  let kv_run ?guard ~duration_ns traffic =
    let st =
      K.St.create
        (K.St.Cfg.make ~nshards:4 ~keyspace ~scheme:"nbr+" ~nthreads:4 ())
    in
    K.run st (K.Cfg.make ~duration_ns ~seed:7 ~prefill:8192 ?guard ~traffic ())

  (* The whole suite for this runtime, written to BENCH_<runtime>.json.
     [alloc_only] keeps just the allocator benches. *)
  let bench ~alloc_only ~mode ~out_dir p =
    results := [];
    Printf.printf "# %s runtime (%s, %s)\n%!" p.runtime p.clock mode;
    (* Runs [f], which records the keys of one gated block, [p.samples]
       times and records each key once, as the median of its samples.
       When sampled, each run is paired with a calibration walk, so the
       walks span the same stretch of the run as the keys they divide. *)
    let calibrated = p.samples > 1 and walks = ref [] in
    let sampled f =
      let outer = !results in
      let runs =
        List.init p.samples (fun _ ->
            if calibrated then walks := list_walk_ns () :: !walks;
            results := [];
            f ();
            List.rev !results)
      in
      results := outer;
      List.iter
        (fun (k, _) -> record k (median (List.map (List.assoc k) runs)))
        (List.hd runs)
    in
    let read_path prefix nthreads iters =
      sampled (fun () ->
          List.iter
            (fun (name, m) -> record (prefix ^ name) (m ~nthreads ~iters))
            read_paths)
    in
    if not alloc_only then begin
      read_path "read_path_1t/" 1 p.it_1t;
      read_path "read_path_mt/" p.mt p.it_mt;
      record
        (Printf.sprintf "signal_all/n%d" p.mt)
        (signal_all_ns ~nthreads:p.mt ~iters:p.it_sig)
    end;
    sampled (fun () ->
        record "alloc_free"
          (alloc_free_ns (flat_pool 1) ~nthreads:1 ~iters:p.it_af);
        record
          (Printf.sprintf "alloc_free_mt/t%d" p.mt)
          (alloc_free_ns (flat_pool p.mt) ~nthreads:p.mt ~iters:p.it_af_mt);
        List.iter
          (fun cls ->
            record
              (Printf.sprintf "alloc_free/cls%d" cls)
              (alloc_free_ns ~cls (classed_pool ()) ~nthreads:1
                 ~iters:p.it_af))
          [ 0; 1 ]);
    (match p.wall_ns with
    | Some dur when not alloc_only ->
        (* Runner-level wall-clock trials: the whole harness on real
           domains.  Mops/s (higher is better) — reported, not
           regression-gated. *)
        List.iter
          (fun (scheme, structure) ->
            let cfg =
              T.Cfg.make ~nthreads:p.mt ~duration_ns:dur ~key_range:256
                ~seed:7 ~smr:smr_cfg ()
            in
            let r = H.run ~scheme ~structure cfg in
            let k = Printf.sprintf "%s/%s/t%d" structure scheme p.mt in
            record ("trial_mops/" ^ k) r.T.throughput_mops;
            record ("trial_uaf/" ^ k) (float_of_int r.T.uaf_reads))
          [ ("nbr", "lazy-list"); ("nbr+", "dgt-tree"); ("ibr", "lazy-list") ]
    | _ -> ());
    if not alloc_only then begin
      (* Latency quantiles: one short harness trial with per-operation
         histograms on. *)
      record_latency_entries
        (H.run ~scheme:"nbr" ~structure:"lazy-list"
           (T.Cfg.make ~nthreads:p.mt ~duration_ns:p.lat_ns ~key_range:256
              ~seed:7 ~smr:smr_cfg ~record_latency:true ()));
      (* Retire-heavy tail pair: inline vs background reclaimer. *)
      record_reclaim_tail (fun reclaim ->
          H.run ~scheme:"nbr+" ~structure:"harris-list"
            (T.Cfg.make ~nthreads:p.mt ~duration_ns:p.tail_ns ~key_range:128
               ~ins_pct:50 ~del_pct:50 ~seed:7
               ~smr:(Nbr_core.Smr_config.with_threshold smr_cfg 64)
               ?reclaim ~record_latency:true ()));
      sampled (fun () ->
          record_kv
            (kv_run ~duration_ns:p.kv_ns
               (Nbr_workload.Traffic.make ~keyspace ())));
      (* Rate and deadline are per-runtime: virtual time is exact, wall
         time needs headroom against OS scheduling. *)
      sampled (fun () ->
          record_kv_slo
            (kv_run ~duration_ns:p.kv_ns
               ~guard:(Nbr.Kv.Guard.Cfg.make ~deadline_ns:p.kv_deadline_ns ())
               (Nbr_workload.Traffic.make
                  ~shape:
                    (Nbr_workload.Traffic.Flash_crowd
                       { fc_at_pct = 40; fc_len_pct = 20; fc_mult = 8 })
                  ~rate_rps:p.kv_rate_rps ~keyspace ())))
    end;
    if calibrated then record calib_key (median !walks);
    write_json ~runtime:p.runtime ~mode
      ~path:(Filename.concat out_dir ("BENCH_" ^ p.runtime ^ ".json"))
end

module N = Bench (Nbr_runtime.Native_rt)
module S = Bench (Nbr_runtime.Sim_rt)

let run ~quick ~runtime ~out_dir ~alloc_only =
  let mode = if quick then "quick" else "standard" in
  if runtime <> `Sim then
    N.bench ~alloc_only ~mode ~out_dir (native_profile quick);
  if runtime <> `Native then
    S.bench ~alloc_only ~mode ~out_dir (sim_profile quick)
