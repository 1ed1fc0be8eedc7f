(** The "none" baseline: never reclaim.

    Retired records are abandoned; allocation always takes fresh slots from
    the pool.  This is the paper's leaky upper-bound on throughput (no
    reclamation costs at all) and the foil for the E2 memory experiments
    (its footprint grows linearly with updates). *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  include Scheme_kernel.Make (Rt) (Scheme_kernel.Stateless)

  let scheme_name = "none"
  let bounded_garbage = false

  (* Nothing to flush: abandoned records are gone for good, which is the
     point of the baseline — under pool pressure it simply exhausts. *)
  let on_pressure _ = ()
  let alloc ?cls c = P.alloc ?cls c.b.pool

  let retire c slot =
    note_retired c slot;
    (* Every retire is garbage forever. *)
    Smr_stats.note_garbage c.st (Smr_stats.retires c.st)
end
