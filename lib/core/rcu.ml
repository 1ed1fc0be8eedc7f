(** RCU-flavoured epoch reclamation (the IBR benchmark's "RCU" baseline).

    Readers announce the global epoch on entry and withdraw on exit;
    retired records are stamped with the epoch at retire time; a reclaimer
    bumps the global epoch and frees records stamped strictly before the
    minimum announced epoch.  Equivalent to classic EBR without DEBRA's
    amortized scanning or bag rotation.

    Not bounded: a reader stalled inside an operation pins the minimum
    epoch. *)

module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct
  let idle = max_int

  type shared = {
    epoch : Rt.aint;
    ann : Rt.aint array;
    retire_ep : int array;  (** per-slot retire epoch (thread-owned writes) *)
  }

  type local = { bag : Limbo_bag.t }

  let init ~capacity ~side:_ ~nthreads _ =
    {
      (* Padded: the global epoch is bumped by every reclaimer while every
         reader loads it, and the per-thread announcements are SWMR cells
         scanned by all reclaimers — classic false-sharing hot spots. *)
      epoch = Rt.make_padded 1;
      ann = Array.init nthreads (fun _ -> Rt.make_padded idle);
      retire_ep = Array.make capacity 0;
    }

  let init_local _ ~nthreads:_ _ = { bag = Limbo_bag.create () }
  let buffered l = Limbo_bag.size l.bag
  let drain l f = ignore (Limbo_bag.drain l.bag f)

  (* Retire epochs live in the shared [retire_ep] array, so adopted and
     handed-off slots carry everything the sweep predicate needs. *)
  let adopt _ l slot = Limbo_bag.push l.bag slot

  (* Withdraw the announcement: a departed reader must not pin the
     minimum epoch. *)
  let recovery =
    Scheme_kernel.Quiesce (fun s _ tid -> Rt.store s.ann.(tid) idle)
end

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module K = Scheme_kernel.Make (Rt) (Policy (Rt))
  include K
  open Policy (Rt)

  let scheme_name = "rcu"
  let bounded_garbage = false

  let begin_op c =
    enter_op c;
    Rt.store c.b.s.ann.(c.tid) (Rt.load c.b.s.epoch)

  let end_op c =
    trace_end_op c;
    Rt.store c.b.s.ann.(c.tid) idle;
    adopt_pending c

  (* Bump the epoch and free everything retired strictly before the
     minimum announced epoch — the threshold-crossing body of [retire],
     also run threshold-free under pool pressure.  Our own announcement
     participates in the minimum, so records retired during the current
     operation stay pinned (conservative and safe mid-operation). *)
  let on_pressure c =
    if Limbo_bag.size c.l.bag > 0 then begin
      ignore (Rt.faa c.b.s.epoch 1);
      let min_ann = ref max_int in
      for t = 0 to c.b.n - 1 do
        let a = Rt.load c.b.s.ann.(t) in
        if a < !min_ann then min_ann := a
      done;
      let freed =
        Limbo_bag.sweep c.l.bag ~upto:(Limbo_bag.abs_tail c.l.bag)
          ~keep:(fun s -> c.b.s.retire_ep.(P.uid c.b.pool s) >= !min_ann)
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
    c.b.s.retire_ep.(P.uid c.b.pool slot) <- Rt.load c.b.s.epoch;
    buffer_retired c slot ~sweep:on_pressure
end
