(** DEBRA: distributed epoch-based reclamation (Brown, PODC'15).

    The fastest known EBR variant and the paper's strongest baseline.
    Threads announce (epoch, quiescent-bit) pairs; the global epoch
    advances when every thread is either quiescent or has announced the
    current epoch, and the advance scan is {e amortized} — each operation
    checks only a few threads, resuming where it left off.  Each thread
    keeps three limbo bags indexed by epoch mod 3: on observing a new
    epoch [e], everything retired in epoch [e-2] is freed wholesale, with
    no per-record scan.

    Not bounded: a thread stalled inside an operation pins the epoch, all
    bags grow without limit, and when the stall ends the backlog is freed
    in a burst — the "delayed thread vulnerability" the paper blames for
    DEBRA's throughput collapse at high thread counts (§7). *)

module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct
  type shared = {
    epoch : Rt.aint;
    announce : Rt.aint array;  (** (epoch lsl 1) lor quiescent-bit *)
  }

  type local = {
    bags : Limbo_bag.t array;  (** three, indexed by epoch mod 3 *)
    mutable local_epoch : int;
    mutable check_next : int;  (** next thread index in the advance scan *)
    mutable checked : int;  (** threads validated for the current epoch *)
  }

  let init ~capacity:_ ~side:_ ~nthreads _ =
    {
      (* Padded: global epoch + per-thread SWMR announcements (see
         Nbr.Policy.init for the false-sharing rationale). *)
      epoch = Rt.make_padded 0;
      announce =
        Array.init nthreads (fun _ -> Rt.make_padded 1 (* quiescent *));
    }

  let init_local _ ~nthreads:_ _ =
    {
      bags = Array.init 3 (fun _ -> Limbo_bag.create ());
      local_epoch = 0;
      check_next = 0;
      checked = 0;
    }

  let buffered l =
    Limbo_bag.size l.bags.(0) + Limbo_bag.size l.bags.(1)
    + Limbo_bag.size l.bags.(2)

  let drain l f = Array.iter (fun bag -> ignore (Limbo_bag.drain bag f)) l.bags

  (* Buffer a record retired now.  Its bag label is the {e global} epoch
     re-read at push time, not [local_epoch]: an active thread only pins
     the global to [local_epoch + 1], so by retire time the unlink may
     have happened one epoch after our announcement.  A record labelled
     [l] is freed only once the epoch reaches [l + 2], an advance every
     reader that could still hold it (announced [<= l]) blocks — labelling
     with the stale local epoch frees exactly one epoch too early for
     readers announced at [local_epoch + 1].  The generation-aware pool
     detector caught this as reads through freed-and-recycled slots.
     Orphans and handed-off records land here too: retired "now" from the
     epoch discipline's point of view, which only delays their release —
     never frees early. *)
  let adopt s l slot = Limbo_bag.push l.bags.(Rt.load s.epoch mod 3) slot

  (* A departed thread must never pin the epoch. *)
  let recovery =
    Scheme_kernel.Quiesce
      (fun s l tid -> Rt.store s.announce.(tid) ((l.local_epoch lsl 1) lor 1))
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module K = Scheme_kernel.Make (Rt) (Policy (Rt))
  include K
  open Policy (Rt)

  let scheme_name = "debra"
  let bounded_garbage = false

  let free_bag c bag =
    let freed = Limbo_bag.drain bag (fun slot -> P.free c.b.pool slot) in
    if freed > 0 then begin
      Smr_stats.add_freed c.st freed;
      Smr_stats.add_reclaim_events c.st 1;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Reclaim freed (Limbo_bag.size bag)
    end

  (* leaveQstate *)
  let begin_op c =
    enter_op c;
    let e = Rt.load c.b.s.epoch in
    if e <> c.l.local_epoch then begin
      (* Entering epoch [e]: records retired in epoch [e-2] (bag index
         (e+1) mod 3) are safe — every thread is in e-1 or e. *)
      free_bag c c.l.bags.((e + 1) mod 3);
      c.l.local_epoch <- e;
      c.l.check_next <- 0;
      c.l.checked <- 0
    end;
    Rt.store c.b.s.announce.(c.tid) (e lsl 1);
    (* Amortized advance scan: DEBRA's low per-operation overhead comes
       from checking only a couple of threads per op, resuming where the
       previous op left off. *)
    let quota = ref (max 1 (c.b.cfg.Smr_config.epoch_freq / 8)) in
    let blocked = ref false in
    while (not !blocked) && !quota > 0 && c.l.checked < c.b.n do
      let j = c.l.check_next in
      let a = Rt.load c.b.s.announce.(j) in
      if a land 1 = 1 || a lsr 1 >= e then begin
        c.l.check_next <- (j + 1) mod c.b.n;
        c.l.checked <- c.l.checked + 1
      end
      else blocked := true;
      decr quota
    done;
    if c.l.checked >= c.b.n then begin
      if Rt.cas c.b.s.epoch e (e + 1) then begin
        (* Adopt the epoch we just created while still ahead of any
           protected read of this op: re-announcing keeps our retire
           labels at the current global epoch (instead of one behind,
           which would pin their release an extra epoch), and entering
           [e+1] releases its two-epochs-back bag right away. *)
        free_bag c c.l.bags.((e + 2) mod 3);
        c.l.local_epoch <- e + 1;
        c.l.check_next <- 0;
        Rt.store c.b.s.announce.(c.tid) ((e + 1) lsl 1)
      end;
      c.l.checked <- 0
    end

  (* enterQstate *)
  let end_op c =
    trace_end_op c;
    Rt.store c.b.s.announce.(c.tid) ((c.l.local_epoch lsl 1) lor 1);
    adopt_pending c

  (* Pool-pressure flush.  While this thread is inside an operation its
     own announcement pins the global epoch to at most [local_epoch + 1],
     so at most one bag (records retired two epochs back) can be released
     no matter how hard we try — EBR's degradation under pressure is
     structural.  Best effort: run the advance scan in full (not
     amortized) and release that bag if the epoch moved.  [local_epoch]
     and our announcement are deliberately left alone: re-announcing a
     newer epoch mid-operation would un-pin records we may still be
     traversing. *)
  let on_pressure c =
    let e = Rt.load c.b.s.epoch in
    let ok = ref true in
    for j = 0 to c.b.n - 1 do
      if !ok then begin
        let a = Rt.load c.b.s.announce.(j) in
        if not (a land 1 = 1 || a lsr 1 >= e) then ok := false
      end
    done;
    if !ok then ignore (Rt.cas c.b.s.epoch e (e + 1));
    let e' = Rt.load c.b.s.epoch in
    if e' <> c.l.local_epoch then
      (* Never a current retire target: our own announcement keeps
         [e' <= local_epoch + 1], so the freed index [(e'+1) mod 3] is
         neither [local_epoch mod 3] nor [(local_epoch + 1) mod 3] — the
         two bags [adopt] can select mid-operation. *)
      free_bag c c.l.bags.((e' + 1) mod 3)

  let alloc ?cls c =
    P.alloc ~on_pressure:(fun () -> on_pressure c) ?cls c.b.pool

  let retire c slot =
    note_retired c slot;
    adopt c.b.s c.l slot;
    let g = limbo_size c in
    Smr_stats.note_garbage c.st g;
    (* DEBRA frees by epoch, not by threshold — but a backlog past the
       sweep threshold (a pinned epoch, or simple retire pressure) is
       worth shedding to the reclaimer, whose begin_op cadence both
       drains it and helps the epoch advance.  All three epoch bags go:
       the collector re-buffers them in its own current retire bag,
       which only ever delays their release. *)
    if g >= c.b.cfg.Smr_config.bag_threshold then ignore (maybe_offload c)
end
