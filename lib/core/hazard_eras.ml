(** Hazard Eras (Ramalhete & Correia, SPAA'17).

    The scheme that seeded the interval-based family the paper benchmarks
    (IBR descends from it, WFE builds on it; §2).  Hazard-pointer shaped,
    but slots publish {e eras} instead of pointers: every record carries
    birth and retire eras; a dereference publishes the current global era
    in one of the thread's era slots (validating that the era did not move
    during the read, like HP's re-read); a record may be freed only if no
    published era falls within its [birth, retire] lifetime.

    Compared to {!Ibr} (2GEIBR) a thread pins a set of discrete eras
    rather than one interval — cheaper when an operation dereferences few
    records, and a slot-for-slot drop-in for HP code.  Like HP and IBR it
    cannot protect traversals through unlinked records (the paper's P5
    objection): [read_raw] only ratchets the era and is unsafe for
    mark-traversing structures, which the benchmarks never pair it with.

    Bounded: a stalled thread pins at most its published eras' records. *)

module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct
  let empty_slot = -1

  type shared = {
    window : int;
    era : Rt.aint;
    slots : Rt.aint array array;  (** published eras; -1 = empty *)
    birth : int;  (** per-record metadata: pool side cells ([P.side_cell]) *)
    retire_era : int;
  }

  type local = {
    bag : Limbo_bag.t;
    mutable hpi : int;
    mutable alloc_count : int;
    scratch : int array;  (** collected eras at reclamation *)
  }

  let init ~capacity:_ ~side ~nthreads cfg =
    let window = cfg.Smr_config.max_reservations + 2 in
    {
      window;
      (* Padded era + per-thread SWMR era slots; per-record birth/retire
         stamps are side cells of the record's pool slot. *)
      era = Rt.make_padded 1;
      slots =
        Array.init nthreads (fun _ ->
            Array.init window (fun _ -> Rt.make_padded empty_slot));
      birth = side ();
      retire_era = side ();
    }

  let init_local s ~nthreads _ =
    {
      bag = Limbo_bag.create ();
      hpi = 0;
      alloc_count = 0;
      scratch = Array.make (nthreads * s.window) 0;
    }

  let buffered l = Limbo_bag.size l.bag
  let drain l f = ignore (Limbo_bag.drain l.bag f)

  (* Birth/retire eras live in the slots' side cells, so adopted and
     handed-off slots carry everything the era sweep needs. *)
  let adopt _ l slot = Limbo_bag.push l.bag slot

  (* Retract [tid]'s published eras so they stop pinning records. *)
  let retract s tid =
    let sl = s.slots.(tid) in
    for i = 0 to s.window - 1 do
      Rt.store sl.(i) empty_slot
    done

  (* HE is bounded, so it takes part in crash recovery; no signals to
     re-send. *)
  let recovery =
    Scheme_kernel.Reap { retract; on_round = (fun ~peer:_ ~round:_ -> ()) }
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module K = Scheme_kernel.Make (Rt) (Policy (Rt))
  include K
  open Policy (Rt)

  let scheme_name = "he"
  let bounded_garbage = true

  let end_op c =
    trace_end_op c;
    retract c.b.s c.tid;
    adopt_pending c

  (* Protect-by-era: publish the current era in the next rotation slot,
     then read; if the era moved during the read, republish and re-read —
     the value finally returned was read under a published covering era.
     Like HP, the era covers the target only if the target was still
     linked when the era was published: a record born and retired entirely
     inside our operation can be reached through a stale interior edge
     with every published era outside its lifetime, so the target's
     lifecycle state must be validated too (see Hp.protect_from). *)
  exception Validation_failed

  let protected_read c cell =
    let sl = c.b.s.slots.(c.tid) in
    let i = c.l.hpi in
    c.l.hpi <- (c.l.hpi + 1) mod c.b.s.window;
    let rec go prev_e tries =
      if tries > 64 then raise Rt.Neutralized;
      let v = Rt.load cell in
      let e = Rt.load c.b.s.era in
      if e = prev_e then
        if v < 0 || P.live c.b.pool v then v
        else begin
          (* Target already unlinked: behave like a failed protection. *)
          raise Validation_failed
        end
      else begin
        ignore (Rt.xchg sl.(i) e) (* fenced publish, as in HP *);
        go e (tries + 1)
      end
    in
    let e0 = Rt.load c.b.s.era in
    ignore (Rt.xchg sl.(i) e0);
    match go e0 0 with
    | v ->
        if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
        v
    | exception Validation_failed -> raise Rt.Neutralized

  let read_root c root = protected_read c root
  let read_ptr c ~src ~field = protected_read c (P.ptr_cell c.b.pool src field)

  (* Unlinked-record traversal cannot be protected by eras, so [read_raw]
     is the kernel's unguarded load: unsafe with mark-traversing
     structures (never benchmarked together).  Data reads only ever
     target records the traversal just protected by era; a [Stale] result
     means protection was lost — abort the read phase like a failed
     validation rather than consume recycled memory. *)
  let read_data = restart_read_data
  let peek_ptr = restart_peek_ptr
  let phase = restartable_phase
  let read_only = restartable_read_only

  (* Era scan + sweep — the threshold-crossing body of [retire], also run
     threshold-free under pool pressure.  Safe mid-operation: our own
     published eras are part of the scan, pinning anything we might still
     dereference. *)
  let on_pressure c =
    watchdog c;
    if Limbo_bag.size c.l.bag > 0 then begin
      let s = c.b.s and l = c.l in
      let k = ref 0 in
      for t = 0 to c.b.n - 1 do
        for i = 0 to s.window - 1 do
          let e = Rt.load s.slots.(t).(i) in
          if e >= 0 then begin
            l.scratch.(!k) <- e;
            incr k
          end
        done
      done;
      let pinned slot =
        let birth = Rt.plain_load (P.side_cell c.b.pool slot s.birth) in
        let death = Rt.plain_load (P.side_cell c.b.pool slot s.retire_era) in
        let hit = ref false in
        for j = 0 to !k - 1 do
          if (not !hit) && l.scratch.(j) >= birth && l.scratch.(j) <= death
          then hit := true
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
    (* Era metadata is per slot: side cells keep it across generations. *)
    Rt.store (P.side_cell c.b.pool slot c.b.s.birth) (Rt.load c.b.s.era);
    slot

  let retire c slot =
    note_retired c slot;
    Rt.store (P.side_cell c.b.pool slot c.b.s.retire_era) (Rt.load c.b.s.era);
    buffer_retired c slot ~sweep:on_pressure
end
