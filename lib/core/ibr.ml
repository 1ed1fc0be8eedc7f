(** 2GEIBR: two-global-epoch interval-based reclamation (Wen et al.,
    PPoPP'18) — the IBR variant the paper benchmarks.

    Every record carries two eras of metadata: the global era at
    allocation (birth) and at retirement.  Every thread announces an
    interval [lower, upper]: [lower] is the era at operation start and
    [upper] is ratcheted up to the current era at {e every dereference of a
    new record} — the per-read overhead the paper charges against P1/P3.
    A reclaimer frees a record iff its [birth, retire] interval intersects
    no announced interval.

    Bounded: a stalled thread pins a fixed interval, so only records whose
    lifetime overlaps it leak — everything born after the stall reclaims
    normally.

    Era protection shares HP's structure obligation (paper P5): the
    ratcheted upper bound only covers records reached through links that
    are re-read from {e live} sources.  A thread descheduled mid-traversal
    can wake inside a retired (but still pinned) record whose frozen link
    points at a record born {e after} the sleeper's announced upper bound —
    by then already swept, and no amount of ratcheting resurrects it.
    [read_ptr] therefore validates its source whenever the ratchet fires
    and aborts the read phase through the checkpoint, exactly like HP's
    announce-and-validate; and structures that traverse mark-tagged links
    of unlinked records ([read_raw]: Harris list and its hash-set buckets)
    are never paired with IBR, as with HP/HE. *)

module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct
  let inactive_lo = max_int
  let inactive_hi = -1

  type shared = {
    era : Rt.aint;
    lo : Rt.aint array;
    hi : Rt.aint array;
    birth : int;  (** per-record metadata: pool side cells ([P.side_cell]) *)
    retire_era : int;
  }

  type local = {
    bag : Limbo_bag.t;
    mutable cached_hi : int;
    mutable alloc_count : int;
    (* interval snapshot scratch for reclamation *)
    slo : int array;
    shi : int array;
  }

  let init ~capacity:_ ~side ~nthreads _ =
    {
      (* Padded: the era is bumped on retires and read per dereference;
         lo/hi are per-thread SWMR interval bounds scanned by reclaimers.
         The per-record birth/retire stamps are side cells of the record's
         pool slot, materialised with it, not contended rows. *)
      era = Rt.make_padded 1;
      lo = Array.init nthreads (fun _ -> Rt.make_padded inactive_lo);
      hi = Array.init nthreads (fun _ -> Rt.make_padded inactive_hi);
      birth = side ();
      retire_era = side ();
    }

  let init_local _ ~nthreads _ =
    {
      bag = Limbo_bag.create ();
      cached_hi = 0;
      alloc_count = 0;
      slo = Array.make nthreads inactive_lo;
      shi = Array.make nthreads inactive_hi;
    }

  let buffered l = Limbo_bag.size l.bag
  let drain l f = ignore (Limbo_bag.drain l.bag f)

  (* Birth/retire eras live in the slots' side cells, so adopted and
     handed-off slots carry everything the interval sweep needs. *)
  let adopt _ l slot = Limbo_bag.push l.bag slot

  (* Retract [tid]'s announced interval so it stops pinning records. *)
  let retract s tid =
    Rt.store s.lo.(tid) inactive_lo;
    Rt.store s.hi.(tid) inactive_hi

  (* IBR is bounded, so it takes part in crash recovery; no signals to
     re-send. *)
  let recovery =
    Scheme_kernel.Reap { retract; on_round = (fun ~peer:_ ~round:_ -> ()) }
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module K = Scheme_kernel.Make (Rt) (Policy (Rt))
  include K
  open Policy (Rt)

  let scheme_name = "ibr"
  let bounded_garbage = true

  let begin_op c =
    enter_op c;
    let e = Rt.load c.b.s.era in
    Rt.store c.b.s.lo.(c.tid) e;
    Rt.store c.b.s.hi.(c.tid) e;
    c.l.cached_hi <- e

  let end_op c =
    trace_end_op c;
    retract c.b.s c.tid;
    adopt_pending c

  (* Interval scan + sweep — the threshold-crossing body of [retire],
     also run threshold-free under pool pressure.  Safe mid-operation:
     our own announced interval is part of the scan, so anything we might
     still dereference stays pinned. *)
  let on_pressure c =
    watchdog c;
    if Limbo_bag.size c.l.bag > 0 then begin
      let s = c.b.s and l = c.l in
      for t = 0 to c.b.n - 1 do
        l.slo.(t) <- Rt.load s.lo.(t);
        l.shi.(t) <- Rt.load s.hi.(t)
      done;
      let pinned slot =
        let birth = Rt.plain_load (P.side_cell c.b.pool slot s.birth) in
        let death = Rt.plain_load (P.side_cell c.b.pool slot s.retire_era) in
        let hit = ref false in
        for t = 0 to c.b.n - 1 do
          if (not !hit) && birth <= l.shi.(t) && death >= l.slo.(t) then
            hit := true
        done;
        !hit
      in
      let freed =
        Limbo_bag.sweep l.bag ~upto:(Limbo_bag.abs_tail l.bag) ~keep:pinned
          ~free:(fun slot -> P.free c.b.pool slot)
      in
      Smr_stats.add_freed c.st freed;
      Smr_stats.add_reclaim_events c.st 1;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Reclaim freed (Limbo_bag.size l.bag)
    end

  let alloc ?cls c =
    let slot = P.alloc ~on_pressure:(fun () -> on_pressure c) ?cls c.b.pool in
    c.l.alloc_count <- c.l.alloc_count + 1;
    if c.l.alloc_count mod c.b.cfg.Smr_config.epoch_freq = 0 then
      ignore (Rt.faa c.b.s.era 1);
    (* Era metadata is per {e slot}, not per handle: side cells keep it
       across generations. *)
    Rt.store (P.side_cell c.b.pool slot c.b.s.birth) (Rt.load c.b.s.era);
    slot

  let retire c slot =
    note_retired c slot;
    Rt.store (P.side_cell c.b.pool slot c.b.s.retire_era) (Rt.load c.b.s.era);
    buffer_retired c slot ~sweep:on_pressure

  (* IBR imposes the same restart obligation on structures as HP: a
     dereference that cannot be revalidated aborts the read phase through
     the checkpoint (see [guarded_read]). *)
  let phase = restartable_phase
  let read_only = restartable_read_only

  (* The 2GE per-dereference protocol (Wen et al., fig. 4): read the
     pointer, then check that the global era still equals the announced
     upper bound; if not, extend the announcement and re-read.  The value
     finally returned was read while [hi = era], so its birth era is
     covered by the announced interval.

     That induction has a second leg: the re-read only proves anything if
     the cell reflects the current structure.  When the ratchet fires, the
     era moved while we held the cell — potentially a whole deschedule, in
     which [src] itself may have been retired.  Its links are then frozen
     stale copies: they can point at a record born after our old upper
     bound that a sweep (correctly) never saw as pinned and has already
     freed, and re-reading the frozen cell just returns the same dangling
     value.  So a fired ratchet validates that the source is still live,
     and aborts the read phase through the checkpoint when it is not —
     HP's validation obligation, surfacing in IBR only on the era-moved
     slow path.  ([src] is [-1] for the root: structure heads are never
     retired, so their cells are always current and need no validation;
     an int sentinel rather than an option keeps the per-read fast path
     allocation-free.) *)
  let guarded_read c cell ~src =
    let rec loop () =
      let v = Rt.load cell in
      let e = Rt.plain_load c.b.s.era in
      if e <> c.l.cached_hi then begin
        Rt.store c.b.s.hi.(c.tid) e;
        c.l.cached_hi <- e;
        (* [unsafe_ibr_no_validate] is ablation A3: skipping this check
           reintroduces the PR 4 frozen-link unsoundness, which the
           schedule-explorer regression re-finds from a certificate. *)
        if
          src >= 0
          && (not c.b.cfg.Smr_config.unsafe_ibr_no_validate)
          && not (P.live c.b.pool src)
        then raise Rt.Neutralized;
        loop ()
      end
      else v
    in
    let v = loop () in
    if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
    v

  let read_root c root = guarded_read c root ~src:(-1)

  let read_ptr c ~src ~field =
    guarded_read c (P.ptr_cell c.b.pool src field) ~src

  (* Interval protection covers targets of guarded dereferences, so data
     reads of an already-covered record need no ratchet: [read_data] and
     [peek_ptr] are the kernel's consuming ones.  A [Stale] result is the
     frozen-link unsoundness surfacing (possible only with ablation A3,
     or through the paper's P5-style misuse): the foil-like honest
     behaviour is to consume the recycled memory and let [record_read]
     convict the access — which is exactly what the stored-certificate
     regression replays. *)

  (* Mark-tagged links are read out of unlinked records (Harris traversal),
     where no liveness validation is possible — the P5 limitation, exactly
     as for HP/HE.  Structures that need [read_raw] are never paired with
     IBR; the ratchet is kept so the announced interval stays monotone. *)
  let read_raw c cell =
    let rec loop () =
      let v = Rt.load cell in
      let e = Rt.plain_load c.b.s.era in
      if e <> c.l.cached_hi then begin
        Rt.store c.b.s.hi.(c.tid) e;
        c.l.cached_hi <- e;
        loop ()
      end
      else v
    in
    loop ()
end
