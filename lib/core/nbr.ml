(** NBR: Neutralization Based Reclamation (paper Algorithm 1).

    Each thread buffers unlinked records in its limbo bag; when the bag
    reaches the threshold the thread sends a neutralizing signal to every
    other thread ([signalAll]), then scans all reservations and frees every
    unreserved record in its bag.  Readers respond to signals by restarting
    their read phase; writers are protected by the reservations they
    published before becoming non-restartable.

    This is the baseline version: every reclamation event costs n-1
    signals, so a collective round of reclamation costs O(n²) signals —
    the bottleneck NBR+ removes (§5).

    Everything except the [retire] policy is shared with {!Nbr_plus},
    which includes this module and plugs in Algorithm 2's [retire]:
    reservations, the restartable flag discipline, the reader–reclaimer
    and writers' handshakes, [signalAll] and [reclaimFreeable]. *)

module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct
  type shared = {
    reservations : Rt.aint array array;
        (** [reservations.(tid).(i)]: swmr announcement slots (line 5). *)
    announce_ts : Rt.aint array;
        (** NBR+ per-thread even/odd broadcast timestamps (Algorithm 2);
            allocated here so NBR+ can reuse the whole family. *)
  }

  type local = {
    bag : Limbo_bag.t;
    scratch : int array;  (** collected reservations, sorted in place *)
    (* Handshake snapshots (one slot per peer), scratch for [broadcast]: *)
    hs_seen0 : int array;
    hs_hb0 : int array;
    (* NBR+ LoWatermark state (unused by plain NBR): *)
    scan_ts : int array;
    mutable first_lo : bool;
    mutable bookmark : int;
    mutable retires_since_scan : int;
  }

  let init ~capacity:_ ~side:_ ~nthreads cfg =
    {
      (* Padded cells: each thread's SWMR slots are written on every
         [end_read] and scanned by every reclaimer — unpadded, eight
         threads' worth of [Atomic.t] blocks pack into one cache line
         and every publication invalidates every reader's line. *)
      reservations =
        Array.init nthreads (fun _ ->
            Array.init cfg.Smr_config.max_reservations (fun _ ->
                Rt.make_padded Nbr_pool.Pool.Handle.nil));
      announce_ts = Array.init nthreads (fun _ -> Rt.make_padded 0);
    }

  let init_local _ ~nthreads cfg =
    {
      bag = Limbo_bag.create ~capacity:(cfg.Smr_config.bag_threshold + 8) ();
      scratch = Array.make (nthreads * cfg.Smr_config.max_reservations) 0;
      hs_seen0 = Array.make nthreads 0;
      hs_hb0 = Array.make nthreads 0;
      scan_ts = Array.make nthreads 0;
      first_lo = true;
      bookmark = 0;
      retires_since_scan = 0;
    }

  let buffered l = Limbo_bag.size l.bag
  let drain l f = ignore (Limbo_bag.drain l.bag f)
  let adopt _ l slot = Limbo_bag.push l.bag slot

  (* Retract [tid]'s published protection so it stops pinning records:
     reservations to nil, and a dead broadcaster's announce_ts rounded
     up to even so NBR+ LoWatermark scanners never treat its aborted
     broadcast as forever in-flight. *)
  let retract s tid =
    let res = s.reservations.(tid) in
    for i = 0 to Array.length res - 1 do
      Rt.store res.(i) Nbr_pool.Pool.Handle.nil
    done;
    let v = Rt.load s.announce_ts.(tid) in
    if v land 1 = 1 then Rt.store s.announce_ts.(tid) (v + 1)

  (* The watchdog re-sends the neutralization signal each round. *)
  let recovery =
    Scheme_kernel.Reap
      { retract; on_round = (fun ~peer ~round:_ -> Rt.send_signal peer) }
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module L = Lifecycle.Make (Rt)
  module K = Scheme_kernel.Make (Rt) (Policy (Rt))
  include K
  open Policy (Rt)

  let scheme_name = "nbr"
  let bounded_garbage = true

  (* ------------------------------------------------------------------ *)
  (* Read/write phase protocol (Algorithm 1, lines 6–13).                *)

  let begin_read c =
    let res = c.b.s.reservations.(c.tid) in
    for i = 0 to Array.length res - 1 do
      Rt.store res.(i) P.nil
    done;
    (* Signals sent while we held no pointers need no action (the paper's
       "quiescent/preamble" handler case). *)
    Rt.drain_signals_t c.tid;
    (* CAS(&restartable,0,1): the RMW orders the flag before any
       subsequent read of shared records (paper line 8 discussion). *)
    Rt.set_restartable_t c.tid true;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Checkpoint_set 0 0

  let end_read c recs =
    let res = c.b.s.reservations.(c.tid) in
    let r = Array.length recs in
    assert (r <= Array.length res);
    for i = 0 to r - 1 do
      Rt.store res.(i) recs.(i)
    done;
    (* CAS(&restartable,1,0): fence broadcasting the reservations before
       the thread becomes non-restartable (paper line 12 discussion). *)
    Rt.set_restartable_t c.tid false;
    if !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Reservation_publish r 0;
    (* Polling runtimes: a signal that arrived before the publication
       completed may have been missed by the sender's scan; restart (no
       shared write has happened yet, so this is always legal).  The
       [unsafe_end_read] knob disables this for ablation A2. *)
    if
      (not c.b.cfg.Smr_config.unsafe_end_read)
      && Rt.consume_pending_t c.tid
    then raise Rt.Neutralized;
    (* The phase completed: any UAF reads it performed were acted on. *)
    Smr_stats.uaf_commit c.st

  (* A replay entering the checkpoint body again: between the Neutralized
     event of the aborted attempt and the Reservation_publish of the next
     successful one, which is what puts the four timeline events of a
     neutralized reader in causal order. *)
  let note_attempt c attempts =
    if attempts > 1 then begin
      (* The previous attempt was neutralized: its UAF reads (if any)
         were poll-window reads whose value was discarded — benign. *)
      Smr_stats.uaf_abort c.st;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Restart
          (attempts - 1) 0
    end

  let phase c ~read ~write =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          note_attempt c !attempts;
          begin_read c;
          let payload, recs = read () in
          end_read c recs;
          write payload)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let read_only c f =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          note_attempt c !attempts;
          begin_read c;
          let r = f () in
          end_read c [||];
          r)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  (* ------------------------------------------------------------------ *)
  (* Guarded traversal: every read is a poll point.  [poll_t c.tid]
     rather than [poll ()]: the context already knows its tid, so the
     per-dereference DLS lookup the argless form pays in the native
     runtime disappears from the hottest path in the system.            *)

  let read_root c root =
    Rt.poll_t c.tid;
    K.read_root c root

  let read_ptr c ~src ~field =
    Rt.poll_t c.tid;
    match P.read_ptr c.b.pool src field with
    | P.Value v ->
        if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
        v
    | P.Stale _ ->
        (* The source record was freed under us — only possible in the
           native poll window (exact delivery in the sim neutralizes us
           first).  We are restartable by protocol, so abandon the read
           phase instead of traversing recycled memory; the restart
           bookkeeping classifies the detected read as benign. *)
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  let read_data c ~src ~field =
    Rt.poll_t c.tid;
    restart_read_data c ~src ~field

  let peek_ptr c ~src ~field =
    Rt.poll_t c.tid;
    restart_peek_ptr c ~src ~field

  let read_raw c cell =
    Rt.poll_t c.tid;
    Rt.load cell

  (* ------------------------------------------------------------------ *)
  (* Reclamation (Algorithm 1, lines 14–24).                             *)

  let signal_all c =
    for t = 0 to c.b.n - 1 do
      if t <> c.tid then Rt.send_signal t
    done

  (* Wait until every live, executing peer has observed *some* signal
     since our pre-broadcast snapshot.  Any observation after the
     snapshot suffices: the observing thread restarts (or re-checks at
     end_read) after our retires were unlinked, which is all the
     handshake needs — the handler does not care who signalled.  Peers
     whose heartbeat freezes are dropped from the wait: a frozen peer is
     not executing, so its pending signal is delivered before its next
     access regardless (and the watchdog will deal with it if it stays
     frozen).  Peers that keep executing without observing — dropped
     signals — get escalating re-sends, then we give up: total wait is
     bounded by [wd_timeout_ns * 2^wd_rounds].

     The wait itself is exponential-backoff polling, not a busy spin:
     each unproductive check doubles a stall (capped at an eighth of the
     base timeout), so a writer stuck behind a slow acknowledger yields
     the core/fiber instead of burning it.  Giving up is itself an
     escalation: each still-unacked peer gets a [Handshake_timeout]
     event and one final watchdog scan — by now its heartbeat has been
     frozen through every backoff round, so a genuinely dead reader is
     claimed and reaped right here rather than wedging each subsequent
     broadcast for the full bounded wait. *)
  let confirm_broadcast c =
    let timeout = c.b.cfg.Smr_config.wd_timeout_ns in
    let rounds = c.b.cfg.Smr_config.wd_rounds in
    let t0 = Rt.now_ns () in
    let round = ref 0 in
    let backoff = ref 100 in
    let backoff_cap = max 100 (timeout / 8) in
    let unacked = ref [] in
    for t = c.b.n - 1 downto 0 do
      if
        t <> c.tid
        && L.is_active c.b.lc t
        && not (L.looks_stale c.b.lc t ~timeout_ns:timeout)
      then unacked := t :: !unacked
    done;
    let give_up = ref false in
    while (not !give_up) && !unacked <> [] do
      let late = Rt.now_ns () - t0 > timeout in
      unacked :=
        List.filter
          (fun t ->
            Rt.signals_seen t <= c.l.hs_seen0.(t)
            && not (late && Rt.heartbeat t = c.l.hs_hb0.(t)))
          !unacked;
      if !unacked <> [] then begin
        let age = Rt.now_ns () - t0 in
        if age > timeout lsl !round then
          if !round >= rounds then give_up := true
          else begin
            List.iter
              (fun t ->
                if !Nbr_obs.Trace.on then
                  Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
                    Nbr_obs.Trace.Heartbeat_timeout t !round;
                Rt.send_signal t)
              !unacked;
            incr round;
            backoff := 100
          end
        else begin
          (* Acknowledge peers' signals (and advance our own heartbeat)
             before sleeping, so two concurrently-confirming writers
             unblock each other; we are non-restartable here, so this
             only consumes. *)
          Rt.poll_t c.tid;
          Rt.stall_ns !backoff;
          backoff := min (2 * !backoff) backoff_cap
        end
      end
    done;
    if !give_up then begin
      Smr_stats.add_handshake_timeouts c.st (List.length !unacked);
      List.iter
        (fun t ->
          if !Nbr_obs.Trace.on then
            Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
              Nbr_obs.Trace.Handshake_timeout t rounds)
        !unacked;
      watchdog c
    end

  (* [signal_all], upgraded: runs the crash watchdog first, and — only
     when a fault decider is installed, i.e. delivery is suspect — the
     blocking confirmation above.  Fault-free runs keep the paper's
     wait-free fire-and-forget broadcast. *)
  let broadcast c =
    watchdog c;
    if Rt.fault_injection_active () then begin
      for t = 0 to c.b.n - 1 do
        c.l.hs_seen0.(t) <- Rt.signals_seen t;
        c.l.hs_hb0.(t) <- Rt.heartbeat t
      done;
      signal_all c;
      confirm_broadcast c
    end
    else signal_all c

  (* Free every unreserved record retired before absolute bag position
     [upto].  Reservations are scanned *after* signalling (writers'
     handshake step 3). *)
  let reclaim_freeable c ~upto =
    let k = collect_sorted c c.b.s.reservations c.l.scratch in
    let bag = c.l.bag in
    let before = Limbo_bag.size bag in
    let freed =
      Limbo_bag.sweep bag ~upto
        ~keep:(fun slot -> mem_sorted c.l.scratch k slot)
        ~free:(fun slot -> P.free c.b.pool slot)
    in
    Smr_stats.add_freed c.st freed;
    if !Nbr_obs.Trace.on then begin
      let ns = Rt.now_ns () in
      Nbr_obs.Trace.emit ~tid:c.tid ~ns Nbr_obs.Trace.Bag_sweep before
        (before - freed);
      Nbr_obs.Trace.emit ~tid:c.tid ~ns Nbr_obs.Trace.Reclaim freed
        (Limbo_bag.size bag)
    end

  (* Threshold-independent reclamation event, for pool pressure: a full
     broadcast + sweep regardless of bag size (Algorithm 1's HiWatermark
     body, run early).  Legal wherever [alloc] is: the caller is
     non-restartable, holds no locks inside the SMR layer, and never
     touches records it has retired. *)
  let on_pressure c =
    if Limbo_bag.size c.l.bag > 0 then begin
      broadcast c;
      reclaim_freeable c ~upto:(Limbo_bag.abs_tail c.l.bag);
      Smr_stats.add_reclaim_events c.st 1
    end
    else watchdog c

  let alloc ?cls c =
    P.alloc ~on_pressure:(fun () -> on_pressure c) ?cls c.b.pool

  (* Buffer an unlinked record: the tail of both schemes' [retire]. *)
  let bag_push c slot =
    Limbo_bag.push c.l.bag slot;
    let n = Limbo_bag.size c.l.bag in
    if !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Bag_push
        slot n;
    Smr_stats.note_garbage c.st n

  (* Algorithm 1, lines 14–20 — with the threshold crossing first offered
     to the background reclaimer: an accepted handoff replaces the whole
     signalAll + scan with one channel push. *)
  let retire c slot =
    note_retired c slot;
    if Limbo_bag.size c.l.bag >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then begin
        broadcast c;
        reclaim_freeable c ~upto:(Limbo_bag.abs_tail c.l.bag);
        Smr_stats.add_reclaim_events c.st 1
      end;
    bag_push c slot
end
