(** QSBR: quiescent-state-based reclamation.

    Threads flip a per-thread counter odd at operation start and even at
    operation end, so an even value means "currently quiescent" and any
    change means "passed through a quiescent state".  A thread whose
    retire buffer fills snapshots all counters and parks the buffer; a
    parked buffer is freed once every other thread has either quiesced
    since the snapshot or is currently quiescent.

    Not bounded: a thread stalled {e inside} an operation freezes its odd
    counter and blocks every parked buffer behind it. *)

module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module Int_vec = Nbr_sync.Int_vec

  type parked = { snap : int array; recs : Int_vec.t }

  type shared = { qs : Rt.aint array }

  type local = {
    mutable current : Int_vec.t;
    mutable parked : parked list;
  }

  (* Padded per-thread quiescence counters: bumped by their owner on
     every operation, scanned by every reclaimer. *)
  let init ~capacity:_ ~side:_ ~nthreads _ =
    { qs = Array.init nthreads (fun _ -> Rt.make_padded 0) }

  let init_local _ ~nthreads:_ _ = { current = Int_vec.create (); parked = [] }

  let buffered l =
    Int_vec.length l.current
    + List.fold_left (fun acc p -> acc + Int_vec.length p.recs) 0 l.parked

  (* The current (unparked) buffer only — parked buffers already have
     their snapshots and are one [try_collect] from freedom, so shipping
     them to the reclaimer would restart their grace periods. *)
  let drain_current l f =
    Int_vec.iter f l.current;
    l.current <- Int_vec.create ()

  let drain l f =
    Int_vec.iter f l.current;
    List.iter (fun p -> Int_vec.iter f p.recs) l.parked;
    l.current <- Int_vec.create ();
    l.parked <- []

  (* Adopted records join our current (unparked) buffer: they get a
     fresh snapshot when it parks, which only delays their release. *)
  let adopt _ l slot = Int_vec.push l.current slot

  (* Leave the counter even: a departed thread is forever quiescent and
     must never block a peer's grace period. *)
  let recovery =
    Scheme_kernel.Quiesce
      (fun s _ tid ->
        if Rt.load s.qs.(tid) land 1 = 1 then ignore (Rt.faa s.qs.(tid) 1))
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module K = Scheme_kernel.Make (Rt) (Policy (Rt))
  include K
  open Policy (Rt)

  let scheme_name = "qsbr"
  let bounded_garbage = false

  let begin_op c =
    enter_op c;
    ignore (Rt.faa c.b.s.qs.(c.tid) 1) (* odd: active *)

  let end_op c =
    trace_end_op c;
    ignore (Rt.faa c.b.s.qs.(c.tid) 1) (* even: quiescent *);
    adopt_pending c

  let grace_elapsed c (p : parked) =
    let ok = ref true in
    for t = 0 to c.b.n - 1 do
      if !ok && t <> c.tid then begin
        let v = Rt.load c.b.s.qs.(t) in
        (* Safe if currently quiescent, or advanced since the snapshot. *)
        if v land 1 = 1 && v = p.snap.(t) then ok := false
      end
    done;
    !ok

  let try_collect c =
    let ready, waiting = List.partition (grace_elapsed c) c.l.parked in
    List.iter
      (fun p ->
        Int_vec.iter (fun slot -> P.free c.b.pool slot) p.recs;
        Smr_stats.add_freed c.st (Int_vec.length p.recs);
        Smr_stats.add_reclaim_events c.st 1;
        if !Nbr_obs.Trace.on then
          Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
            Nbr_obs.Trace.Reclaim (Int_vec.length p.recs) 0)
      ready;
    c.l.parked <- waiting

  let park c =
    let snap = Array.init c.b.n (fun t -> Rt.load c.b.s.qs.(t)) in
    c.l.parked <- { snap; recs = c.l.current } :: c.l.parked;
    c.l.current <- Int_vec.create ()

  (* Pool-pressure flush: park the current buffer regardless of the
     threshold and collect everything whose grace period has elapsed.  A
     peer stalled inside an operation still blocks every buffer parked
     behind its frozen counter — QSBR's structural degradation. *)
  let on_pressure c =
    if Int_vec.length c.l.current > 0 then park c;
    try_collect c

  let alloc ?cls c =
    P.alloc ~on_pressure:(fun () -> on_pressure c) ?cls c.b.pool

  let retire c slot =
    note_retired c slot;
    Int_vec.push c.l.current slot;
    let count = Int_vec.length c.l.current in
    if
      count >= c.b.cfg.Smr_config.bag_threshold
      && not (offload c ~count drain_current)
    then begin
      park c;
      try_collect c
    end;
    note_buffered c
end
