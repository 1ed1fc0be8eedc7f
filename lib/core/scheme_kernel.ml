(* The scheme-independent scaffolding of every reclamation scheme
   (DESIGN.md §17).  A scheme file defines a [Policy] (its protocol
   state, limbo layout and crash-recovery hooks), applies [Make], and
   supplies or overrides the protocol verbs on top. *)

type ('s, 'l) recovery =
  | Reap of {
      retract : 's -> int -> unit;
      on_round : peer:int -> round:int -> unit;
    }
  | Quiesce of ('s -> 'l -> int -> unit)

module type POLICY = sig
  type shared
  type local

  val init :
    capacity:int -> side:(unit -> int) -> nthreads:int -> Smr_config.t -> shared
  val init_local : shared -> nthreads:int -> Smr_config.t -> local
  val buffered : local -> int
  val drain : local -> (int -> unit) -> unit
  val adopt : shared -> local -> int -> unit
  val recovery : (shared, local) recovery
end

module Stateless = struct
  type shared = unit
  type local = unit

  let init ~capacity:_ ~side:_ ~nthreads:_ _ = ()
  let init_local () ~nthreads:_ _ = ()
  let buffered () = 0
  let drain () _ = ()
  let adopt () () _ = ()
  let recovery = Quiesce (fun () () _ -> ())
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) (Policy : POLICY) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)
  module Offload = Smr_intf.Offload
  module Trace = Nbr_obs.Trace

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    s : Policy.shared;
    lc : L.t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
    mutable offload : Offload.t option;
  }

  and ctx = { b : t; tid : int; st : Smr_stats.t; l : Policy.local }

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    {
      pool;
      n = nthreads;
      cfg;
      s =
        Policy.init ~capacity:(P.capacity pool)
          ~side:(fun () -> P.add_side pool)
          ~nthreads cfg;
      lc = L.create ~nthreads;
      done_stats = Smr_stats.zero ();
      ctxs = Array.make nthreads None;
      offload = None;
    }

  let register b ~tid =
    L.reset_slot b.lc tid;
    let c =
      {
        b;
        tid;
        st = Smr_stats.zero ();
        l = Policy.init_local b.s ~nthreads:b.n b.cfg;
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  let ctx_stats c = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc

  (* ------------------------------------------------------------------ *)
  (* Limbo bookkeeping shared by retire, adoption and externalization.   *)

  let note_retired c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1

  let note_buffered c = Smr_stats.note_garbage c.st (Policy.buffered c.l)

  (* Flattened slot lists are conservatively safe wherever they land:
     the receiver re-buffers them as freshly retired. *)
  let drain_list drain l =
    let slots = ref [] in
    drain l (fun s -> slots := s :: !slots);
    !slots

  (* Re-buffer departed/crashed threads' retires as our own: they free
     through our normal sweeps and count against *our* garbage bound. *)
  let adopt_orphans c =
    let n = L.adopt c.b.lc ~tid:c.tid ~push:(Policy.adopt c.b.s c.l) in
    if n > 0 then note_buffered c

  (* ------------------------------------------------------------------ *)
  (* Limbo-bag externalization (DESIGN.md §12).                          *)

  let set_offload b o = b.offload <- o
  let limbo_size c = Policy.buffered c.l

  let export c drain =
    let slots = drain_list drain c.l in
    L.push_handoff c.b.lc ~origin:c.tid slots;
    List.length slots

  let hand_off c = export c Policy.drain

  (* Retire-path gate: offer [count] records (emptied by [drain]) to the
     reclaimer.  [false] means sweep inline — no offload installed,
     degraded, or the channel is backlogged (which flips the degrade
     switch as a side effect). *)
  let offload c ~count drain =
    match c.b.offload with
    | None -> false
    | Some o ->
        count > 0
        && Offload.try_accept o ~tid:c.tid ~ns:(Rt.now_ns ()) ~count
        &&
        (ignore (export c drain);
         true)

  let maybe_offload c = offload c ~count:(Policy.buffered c.l) Policy.drain

  (* The single-bag retire tail: buffer, sweep past the threshold unless
     the reclaimer takes the bag, then note the garbage that remains. *)
  let buffer_retired c slot ~sweep =
    Policy.adopt c.b.s c.l slot;
    if Policy.buffered c.l >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then sweep c;
    note_buffered c

  let collect_handoffs c =
    let n = L.take_handoffs c.b.lc ~push:(Policy.adopt c.b.s c.l) in
    if n > 0 then begin
      note_buffered c;
      match c.b.offload with
      | Some o ->
          Offload.note_collected o ~tid:c.tid ~ns:(Rt.now_ns ()) ~count:n
      | None ->
          (* End-of-trial drain with the switchboard already gone: still
             emit the collection so the sanitizer's foreign-sweep credit
             and the trace timeline stay complete. *)
          if !Trace.on then
            Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Trace.Handoff_collect n 0
    end;
    n

  (* ------------------------------------------------------------------ *)
  (* Membership: graceful leave and crash recovery (see [Lifecycle]).    *)

  (* Drain [vc]'s limbo into an orphan parcel and fold its stats into
     [into].  The records stay Retired in the pool; adopters re-buffer
     and free them through their sweeps. *)
  let orphan b ~into vc =
    L.push_parcel b.lc ~origin:vc.tid (drain_list Policy.drain vc.l);
    Smr_stats.add into vc.st;
    b.ctxs.(vc.tid) <- None

  let reap c retract victim =
    (* Reclaim the dead thread's magazines along with its limbo. *)
    P.flush_thread c.b.pool ~tid:victim;
    retract c.b.s victim;
    match c.b.ctxs.(victim) with
    | None -> ()
    | Some vc -> orphan c.b ~into:c.st vc

  let watchdog c =
    match Policy.recovery with
    | Quiesce _ -> ()
    | Reap { retract; on_round } ->
        L.scan c.b.lc ~self:c.tid ~timeout_ns:c.b.cfg.Smr_config.wd_timeout_ns
          ~rounds:c.b.cfg.Smr_config.wd_rounds ~on_round
          ~reap:(fun v -> reap c retract v)

  let deregister c =
    if L.depart c.b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread c.b.pool ~tid:c.tid;
      match Policy.recovery with
      | Reap { retract; _ } ->
          retract c.b.s c.tid;
          L.with_stats_lock c.b.lc (fun () ->
              orphan c.b ~into:c.b.done_stats c)
      | Quiesce quiesce ->
          quiesce c.b.s c.l c.tid;
          L.push_parcel c.b.lc ~origin:c.tid (drain_list Policy.drain c.l);
          L.with_stats_lock c.b.lc (fun () ->
              Smr_stats.add c.b.done_stats c.st);
          c.b.ctxs.(c.tid) <- None
    end
  (* else: a watchdog claimed us first and owns all of this state. *)

  (* ------------------------------------------------------------------ *)
  (* Operation brackets.                                                 *)

  let enter_op c =
    L.check_self c.b.lc c.tid;
    if !Trace.fine then
      Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Trace.Begin_op 0 0

  let trace_end_op c =
    if !Trace.fine then
      Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Trace.End_op 0 0

  (* One stdlib atomic load on the hot path; the active check guards a
     thread resuming after an [Expelled] verdict from adopting. *)
  let adopt_pending c =
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  let begin_op = enter_op

  let end_op c =
    trace_end_op c;
    adopt_pending c

  (* ------------------------------------------------------------------ *)
  (* Phases.                                                             *)

  (* No neutralization, no restarts: both phases run unguarded, so any
     UAF read commits at phase completion. *)
  let phase c ~read ~write =
    let payload, _recs = read () in
    Smr_stats.uaf_commit c.st;
    write payload

  let read_only c f =
    let r = f () in
    Smr_stats.uaf_commit c.st;
    r

  (* A dereference that fails validation aborts the read phase through
     the checkpoint; the replay's UAF reads were benign. *)
  let restartable_phase c ~read ~write =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          if !attempts > 1 then Smr_stats.uaf_abort c.st;
          let payload, _recs = read () in
          Smr_stats.uaf_commit c.st;
          write payload)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let restartable_read_only c f =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          if !attempts > 1 then Smr_stats.uaf_abort c.st;
          let r = f () in
          Smr_stats.uaf_commit c.st;
          r)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  (* ------------------------------------------------------------------ *)
  (* Traversal without protection.                                       *)

  let read_root c root =
    let v = Rt.load root in
    if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
    v

  let read_ptr c ~src ~field =
    let v = Rt.load (P.ptr_cell c.b.pool src field) in
    if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
    v

  let read_raw _c cell = Rt.load cell

  (* Consume staleness: a [Stale] result is either unreachable by the
     scheme's guarantees (a misuse the sanitizer's [stale_handle] rule
     convicts) or the point of a foil; read the recycled memory as the
     unprotected read it is and let [record_read] convict it. *)
  let read_data c ~src ~field =
    match P.read_data c.b.pool src field with
    | P.Value v -> v
    | P.Stale v ->
        if P.record_read c.b.pool src then Smr_stats.note_uaf c.st;
        v

  let peek_ptr c ~src ~field =
    match P.read_ptr c.b.pool src field with
    | P.Value v -> v
    | P.Stale v ->
        if P.record_read c.b.pool src then Smr_stats.note_uaf c.st;
        v

  (* Restart staleness: the source was freed under a restartable reader,
     so abandon the read phase instead of traversing recycled memory;
     the restart bookkeeping classifies the detected read as benign. *)
  let restart_read_data c ~src ~field =
    match P.read_data c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  let restart_peek_ptr c ~src ~field =
    match P.read_ptr c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  (* ------------------------------------------------------------------ *)
  (* Reservation scans.                                                  *)

  (* Collect every other thread's published handles from [rows] into
     [scratch], sorted; returns the count. *)
  let collect_sorted c rows scratch =
    let k = ref 0 in
    for t = 0 to c.b.n - 1 do
      if t <> c.tid then begin
        let row = rows.(t) in
        for i = 0 to Array.length row - 1 do
          let v = Rt.load row.(i) in
          if v >= 0 then begin
            scratch.(!k) <- v;
            incr k
          end
        done
      end
    done;
    let a = Array.sub scratch 0 !k in
    Array.sort compare a;
    Array.blit a 0 scratch 0 !k;
    !k

  let mem_sorted a n x =
    let rec go lo hi =
      if lo >= hi then false
      else
        let mid = (lo + hi) / 2 in
        if a.(mid) = x then true
        else if a.(mid) < x then go (mid + 1) hi
        else go lo mid
    in
    go 0 n
end
