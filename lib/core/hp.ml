(** Hazard pointers (Michael, TPDS'04).

    Every dereference announces the target in a single-writer multi-reader
    hazard slot with a fenced publish (the paper models this with [xchg],
    whose implicit fence is cheaper than [mfence]; we do the same), then
    validates that the link it was read from is unchanged — in our
    structures every unlink modifies the link that was followed, so an
    unchanged link proves the target is not yet retired and the
    announcement was made in time.  Validation failure aborts the read
    phase through the checkpoint (the "restart" obligation HP imposes on
    data structures, paper §2/§5.3).

    Hazard slots rotate through a window of [max_reservations + 2], which
    preserves hand-over-hand protection for list/tree traversals and keeps
    the reservations passed to [phase]'s write stage protected.

    Bounded: at most (window × threads) records can be pinned. *)

module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct
  type shared = {
    window : int;
    hazards : Rt.aint array array;  (** [hazards.(tid).(i)] *)
  }

  type local = {
    bag : Limbo_bag.t;
    mutable hpi : int;  (** rotation index *)
    scratch : int array;
  }

  let init ~capacity:_ ~side:_ ~nthreads cfg =
    let window = cfg.Smr_config.max_reservations + 2 in
    {
      window;
      (* Padded: hazard slots are stored (with a fence) on every guarded
         dereference by their owner and scanned by every reclaimer — the
         single most write-hot SWMR cells of any scheme here. *)
      hazards =
        Array.init nthreads (fun _ ->
            Array.init window (fun _ -> Rt.make_padded Nbr_pool.Pool.Handle.nil));
    }

  let init_local s ~nthreads _ =
    {
      bag = Limbo_bag.create ();
      hpi = 0;
      scratch = Array.make (nthreads * s.window) 0;
    }

  let buffered l = Limbo_bag.size l.bag
  let drain l f = ignore (Limbo_bag.drain l.bag f)

  (* Records in the bag carry no per-record metadata beyond the slot
     itself: the hazard scan pins by slot id. *)
  let adopt _ l slot = Limbo_bag.push l.bag slot

  (* Retract [tid]'s hazard slots so they stop pinning records. *)
  let retract s tid =
    let hz = s.hazards.(tid) in
    for i = 0 to s.window - 1 do
      Rt.store hz.(i) Nbr_pool.Pool.Handle.nil
    done

  (* HP is bounded, so it takes part in crash recovery; no signals to
     re-send. *)
  let recovery =
    Scheme_kernel.Reap { retract; on_round = (fun ~peer:_ ~round:_ -> ()) }
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module K = Scheme_kernel.Make (Rt) (Policy (Rt))
  include K
  open Policy (Rt)

  let scheme_name = "hp"
  let bounded_garbage = true
  let max_validate_retries = 64

  let end_op c =
    trace_end_op c;
    retract c.b.s c.tid;
    adopt_pending c

  (* Announce-and-validate: publish [target] read from [cell], then check
     that [cell] still holds it, that the target has not been unlinked,
     and that the slot was not recycled under us.  The link re-read alone
     is insufficient for structures whose unlink splices an ancestor edge
     (DGT delete leaves the interior parent->leaf edge intact while both
     records retire) — the "check whether the record has already been
     unlinked" obligation the paper ascribes to HP (§2).  Failure aborts
     the read phase through the checkpoint. *)
  let protect_from c cell =
    let hz = c.b.s.hazards.(c.tid) in
    let slot = c.l.hpi in
    c.l.hpi <- (c.l.hpi + 1) mod c.b.s.window;
    let rec go tries =
      let p = Rt.load cell in
      if p < 0 then p
      else begin
        let s0 = P.stamp c.b.pool p in
        ignore (Rt.xchg hz.(slot) p) (* fenced publish *);
        let p' = Rt.load cell in
        if p = p' && P.live c.b.pool p && P.stamp c.b.pool p = s0 then begin
          if P.record_read c.b.pool p then Smr_stats.note_uaf c.st;
          p
        end
        else if tries >= max_validate_retries then raise Rt.Neutralized
        else go (tries + 1)
      end
    in
    go 0

  let read_root c root = protect_from c root
  let read_ptr c ~src ~field = protect_from c (P.ptr_cell c.b.pool src field)

  (* Data reads only ever target records the traversal just protected, so
     a [Stale] result means the protection race was lost after all (the
     validation window of [protect_from] closed on a copy) — abort the
     read phase like any failed validation rather than consume recycled
     memory. *)
  let read_data = restart_read_data
  let peek_ptr = restart_peek_ptr

  (* HP cannot protect through a mark-tagged word (it does not know the
     encoding) — the P5 limitation the paper describes — so [read_raw] is
     the kernel's unguarded load.  Structures that need it (Harris list,
     traversal over marked nodes) must not be paired with HP; the
     benchmarks never do. *)

  (* The reservations passed by the data structure are the last few records
     it protected; the rotation window is sized so they are still live, so
     the write phase needs no further publication. *)
  let phase = restartable_phase
  let read_only = restartable_read_only

  (* Hazard scan + sweep — the threshold-crossing body of [retire], also
     run threshold-free under pool pressure.  Own hazards are skipped, as
     in the retire-time scan: records in our bag were retired by us and
     are never touched again, whatever our hazard slots still point at. *)
  let on_pressure c =
    watchdog c;
    if Limbo_bag.size c.l.bag > 0 then begin
      let k = collect_sorted c c.b.s.hazards c.l.scratch in
      let freed =
        Limbo_bag.sweep c.l.bag ~upto:(Limbo_bag.abs_tail c.l.bag)
          ~keep:(fun s -> mem_sorted c.l.scratch k s)
          ~free:(fun s -> P.free c.b.pool s)
      in
      Smr_stats.add_freed c.st freed;
      Smr_stats.add_reclaim_events c.st 1;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Reclaim freed (Limbo_bag.size c.l.bag)
    end

  let alloc ?cls c =
    P.alloc ~on_pressure:(fun () -> on_pressure c) ?cls c.b.pool

  let retire c slot =
    note_retired c slot;
    buffer_retired c slot ~sweep:on_pressure
end
