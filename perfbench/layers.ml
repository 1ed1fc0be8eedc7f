(* The benchmark's instrumentation: wrappers around the three functor
   arguments of the stack — the runtime ([Runtime_intf.S]), the
   reclamation scheme ([Smr_intf.S]) and the set structure — that count
   and time the calls crossing each layer's public functions.  The
   program under test is never edited: the benchmark passes these
   wrappers into [Runner.Make] and [Service.Make].

   [Rt.run] is the boundary between set-up and the measured window:
   every wrapper counts only while [Window.inside] holds, so prefill and
   teardown stay out of the per-operation ratios. *)

module type RT = Nbr_runtime.Runtime_intf.S

let wall_ns : unit -> int = Nbr_runtime.Native_rt.now_ns

module Window = struct
  let inside = ref false
  let setup_start = ref 0
  let start = ref 0
  let stop = ref 0
  let minor_words = ref 0
  let minor_collections = ref 0

  (* Called as the window opens, for snapshots of state the benchmark
     cannot reach otherwise (the runner's pool). *)
  let on_start : (unit -> unit) ref = ref ignore
  let begin_setup () = setup_start := wall_ns ()
  let setup_ns () = !start - !setup_start
  let run_ns () = !stop - !start
end

(* Only the window boundary: no per-call cost, so the end-to-end runs
   use it as they would use the bare runtime.  The simulator runs every
   fiber on the calling domain, whose GC counters therefore cover the
   whole window. *)
module Bound (Rt : RT) : RT with type aint = Rt.aint = struct
  include Rt

  let run ~nthreads body =
    !Window.on_start ();
    let gc0 = Gc.quick_stat () in
    Window.inside := true;
    Window.start := wall_ns ();
    Fun.protect
      ~finally:(fun () ->
        Window.stop := wall_ns ();
        Window.inside := false;
        let gc1 = Gc.quick_stat () in
        Window.minor_words :=
          int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words);
        Window.minor_collections :=
          gc1.Gc.minor_collections - gc0.Gc.minor_collections)
      (fun () -> Rt.run ~nthreads body)
end

(* ------------------------------------------------------------------ *)
(* Runtime layer: counts over the window (the simulator is one domain). *)

type rt_counts = {
  mutable accesses : int;  (** loads, stores and read-modify-writes *)
  mutable atomics : int;  (** CAS / FAA / XCHG *)
  mutable signals : int;
  mutable polls : int;
}

let rt = { accesses = 0; atomics = 0; signals = 0; polls = 0 }

let rt_reset () =
  rt.accesses <- 0;
  rt.atomics <- 0;
  rt.signals <- 0;
  rt.polls <- 0

let rt_totals () = { rt with accesses = rt.accesses }

module Counted (Rt : RT) : RT with type aint = Rt.aint = struct
  include Bound (Rt)

  let access () = if !Window.inside then rt.accesses <- rt.accesses + 1

  let atomic () =
    if !Window.inside then begin
      rt.accesses <- rt.accesses + 1;
      rt.atomics <- rt.atomics + 1
    end

  let load a =
    access ();
    Rt.load a

  let plain_load a =
    access ();
    Rt.plain_load a

  let store a v =
    access ();
    Rt.store a v

  let cas a e d =
    atomic ();
    Rt.cas a e d

  let faa a d =
    atomic ();
    Rt.faa a d

  let xchg a v =
    atomic ();
    Rt.xchg a v

  let send_signal t =
    if !Window.inside then rt.signals <- rt.signals + 1;
    Rt.send_signal t

  let poll_t t =
    if !Window.inside then rt.polls <- rt.polls + 1;
    Rt.poll_t t
end

(* ------------------------------------------------------------------ *)
(* Scheme and structure layers: per-thread accumulators and spans.     *)

(* One structure operation's span, four ints: kind lor (failed lsl 2),
   start, end, and the scheme time inside it (the per-call scheme spans,
   aggregated per op).  Times are the runtime clock: virtual in the
   simulator, where a wall clock would also bill the fibers scheduled
   inside the call. *)
let span_width = 4
let kind_names = [| "contains"; "insert"; "delete" |]

type thread = {
  tid : int;
  mutable entered : int;
  mutable scheme_ns : int;
  mutable guarded : int;
  mutable attempts : int;  (** read phases entered, restarts included *)
  mutable completed : int;  (** read phases that reached their write *)
  mutable spans : int array;
  mutable nspans : int;
}

let threads : thread array ref = ref [||]

let new_thread tid =
  {
    tid;
    entered = 0;
    scheme_ns = 0;
    guarded = 0;
    attempts = 0;
    completed = 0;
    spans = Array.make (span_width * 4096) 0;
    nspans = 0;
  }

let reset_threads n = threads := Array.init n new_thread

let push_span th kind failed t0 t1 sch =
  let need = (th.nspans + 1) * span_width in
  if need > Array.length th.spans then begin
    let a = Array.make (2 * Array.length th.spans) 0 in
    Array.blit th.spans 0 a 0 (th.nspans * span_width);
    th.spans <- a
  end;
  let b = th.nspans * span_width in
  th.spans.(b) <- kind lor (if failed then 4 else 0);
  th.spans.(b + 1) <- t0;
  th.spans.(b + 2) <- t1;
  th.spans.(b + 3) <- sch;
  th.nspans <- th.nspans + 1

module Smr_traced
    (Rt : RT)
    (Smr : Nbr_core.Smr_intf.S
             with type aint = Rt.aint
              and type pool = Nbr_pool.Pool.Make(Rt).t) : sig
  include
    Nbr_core.Smr_intf.S
      with type aint = Rt.aint
       and type pool = Nbr_pool.Pool.Make(Rt).t

  val thread : ctx -> thread

  val last_pool : pool option ref
  (** The pool of the most recent [create]: the trial runner builds it
      internally, and the pool layer is read from its stats. *)
end = struct
  type aint = Smr.aint
  type pool = Smr.pool
  type t = Smr.t
  type ctx = { c : Smr.ctx; th : thread }

  let scheme_name = Smr.scheme_name
  let bounded_garbage = Smr.bounded_garbage
  let last_pool = ref None
  let thread ctx = ctx.th

  let create pool ~nthreads cfg =
    last_pool := Some pool;
    reset_threads nthreads;
    Smr.create pool ~nthreads cfg

  let register t ~tid = { c = Smr.register t ~tid; th = !threads.(tid) }

  let enter th = th.entered <- Rt.now_ns ()

  let leave th =
    th.scheme_ns <- th.scheme_ns + (Rt.now_ns () - th.entered)

  (* Time one scheme call; [f] runs entirely inside the scheme. *)
  let timed th f =
    if not !Window.inside then f ()
    else begin
      enter th;
      match f () with
      | v ->
          leave th;
          v
      | exception e ->
          leave th;
          raise e
    end

  (* A structure callback the scheme runs (a read or write phase body):
     its time belongs to the structure, except for the scheme calls it
     makes itself. *)
  let callback th f x =
    if not !Window.inside then f x
    else begin
      leave th;
      match f x with
      | v ->
          enter th;
          v
      | exception e ->
          enter th;
          raise e
    end

  let deregister ctx = Smr.deregister ctx.c
  let adopt_orphans ctx = timed ctx.th (fun () -> Smr.adopt_orphans ctx.c)
  let set_offload = Smr.set_offload
  let limbo_size ctx = Smr.limbo_size ctx.c
  let hand_off ctx = Smr.hand_off ctx.c
  let collect_handoffs ctx = Smr.collect_handoffs ctx.c
  let begin_op ctx = timed ctx.th (fun () -> Smr.begin_op ctx.c)
  let end_op ctx = timed ctx.th (fun () -> Smr.end_op ctx.c)
  let alloc ?cls ctx = timed ctx.th (fun () -> Smr.alloc ?cls ctx.c)
  let retire ctx h = timed ctx.th (fun () -> Smr.retire ctx.c h)
  let on_pressure ctx = timed ctx.th (fun () -> Smr.on_pressure ctx.c)

  let phase ctx ~read ~write =
    let th = ctx.th in
    if not !Window.inside then Smr.phase ctx.c ~read ~write
    else
      timed th (fun () ->
          Smr.phase ctx.c
            ~read:(fun () ->
              th.attempts <- th.attempts + 1;
              callback th read ())
            ~write:(fun x ->
              th.completed <- th.completed + 1;
              callback th write x))

  let read_only ctx f =
    let th = ctx.th in
    if not !Window.inside then Smr.read_only ctx.c f
    else begin
      let v =
        timed th (fun () ->
            Smr.read_only ctx.c (fun () ->
                th.attempts <- th.attempts + 1;
                callback th f ()))
      in
      th.completed <- th.completed + 1;
      v
    end

  (* The guarded reads are the hot path: timed without a closure. *)
  let guarded th =
    th.guarded <- th.guarded + 1;
    enter th

  let read_root ctx a =
    let th = ctx.th in
    if not !Window.inside then Smr.read_root ctx.c a
    else begin
      guarded th;
      match Smr.read_root ctx.c a with
      | v ->
          leave th;
          v
      | exception e ->
          leave th;
          raise e
    end

  let read_ptr ctx ~src ~field =
    let th = ctx.th in
    if not !Window.inside then Smr.read_ptr ctx.c ~src ~field
    else begin
      guarded th;
      match Smr.read_ptr ctx.c ~src ~field with
      | v ->
          leave th;
          v
      | exception e ->
          leave th;
          raise e
    end

  let read_raw ctx a =
    let th = ctx.th in
    if not !Window.inside then Smr.read_raw ctx.c a
    else begin
      guarded th;
      match Smr.read_raw ctx.c a with
      | v ->
          leave th;
          v
      | exception e ->
          leave th;
          raise e
    end

  let read_data ctx ~src ~field =
    let th = ctx.th in
    if not !Window.inside then Smr.read_data ctx.c ~src ~field
    else begin
      guarded th;
      match Smr.read_data ctx.c ~src ~field with
      | v ->
          leave th;
          v
      | exception e ->
          leave th;
          raise e
    end

  let peek_ptr ctx ~src ~field =
    let th = ctx.th in
    if not !Window.inside then Smr.peek_ptr ctx.c ~src ~field
    else begin
      guarded th;
      match Smr.peek_ptr ctx.c ~src ~field with
      | v ->
          leave th;
          v
      | exception e ->
          leave th;
          raise e
    end

  let stats = Smr.stats
  let ctx_stats ctx = Smr.ctx_stats ctx.c
end

(* One span per structure operation inside the window. *)
module Ds_traced
    (Rt : RT) (Smr : sig
      type ctx

      val thread : ctx -> thread
    end)
    (Ds : sig
      type t

      val name : string
      val data_fields : int
      val ptr_fields : int
      val max_reservations : int
      val create : Nbr_pool.Pool.Make(Rt).t -> t
      val contains : t -> Smr.ctx -> int -> bool
      val insert : t -> Smr.ctx -> int -> bool
      val delete : t -> Smr.ctx -> int -> bool
      val size : t -> int
    end) =
struct
  include Ds

  let op kind f t ctx k =
    if not !Window.inside then f t ctx k
    else begin
      let th = Smr.thread ctx in
      let s0 = th.scheme_ns in
      let t0 = Rt.now_ns () in
      match f t ctx k with
      | r ->
          push_span th kind false t0 (Rt.now_ns ()) (th.scheme_ns - s0);
          r
      | exception e ->
          push_span th kind true t0 (Rt.now_ns ()) (th.scheme_ns - s0);
          raise e
    end

  let contains = op 0 Ds.contains
  let insert = op 1 Ds.insert
  let delete = op 2 Ds.delete
end

(* Exact per-operation latency on the runtime clock, for untraced runs
   of the trial runner in the simulator: two clock reads per op into
   per-thread buffers.  Reading the simulated clock neither yields nor
   charges cycles, so the schedule is unchanged. *)
module Latency = struct
  let bufs : int array array ref = ref [||]
  let lens : int array ref = ref [||]

  let reset ~nthreads =
    bufs := Array.init nthreads (fun _ -> Array.make 4096 0);
    lens := Array.make nthreads 0

  let record tid v =
    let n = !lens.(tid) in
    if n = Array.length !bufs.(tid) then begin
      let a = Array.make (2 * n) 0 in
      Array.blit !bufs.(tid) 0 a 0 n;
      !bufs.(tid) <- a
    end;
    !bufs.(tid).(n) <- v;
    !lens.(tid) <- n + 1

  let samples () =
    Array.concat
      (Array.to_list (Array.mapi (fun i b -> Array.sub b 0 !lens.(i)) !bufs))
end

module Ds_timed
    (Rt : RT) (Smr : sig
      type ctx
    end)
    (Ds : sig
      type t

      val name : string
      val data_fields : int
      val ptr_fields : int
      val max_reservations : int
      val create : Nbr_pool.Pool.Make(Rt).t -> t
      val contains : t -> Smr.ctx -> int -> bool
      val insert : t -> Smr.ctx -> int -> bool
      val delete : t -> Smr.ctx -> int -> bool
      val size : t -> int
    end) =
struct
  include Ds

  let op f t ctx k =
    if not !Window.inside then f t ctx k
    else begin
      let t0 = Rt.now_ns () in
      let r = f t ctx k in
      Latency.record (Rt.self ()) (Rt.now_ns () - t0);
      r
    end

  let contains = op Ds.contains
  let insert = op Ds.insert
  let delete = op Ds.delete
end
