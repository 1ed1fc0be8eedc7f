(** NBR: Neutralization Based Reclamation — core library.

    The paper's contribution ({!Nbr}, {!Nbr_plus}) plus every reclamation
    scheme its evaluation compares against, all implementing
    {!Smr_intf.S} so the data structures in [nbr.ds] run unchanged under
    any of them.

    {!Smr_config} and {!Smr_stats} are the shared knob/metric records;
    {!Limbo_bag} is the per-thread retired-record buffer;
    {!Scheme_kernel} is the scaffolding every scheme is built on. *)

module Smr_intf = Smr_intf
module Smr_config = Smr_config
module Smr_stats = Smr_stats
module Limbo_bag = Limbo_bag
module Scheme_kernel = Scheme_kernel
module Nbr = Nbr
module Nbr_plus = Nbr_plus
module Debra = Debra
module Qsbr = Qsbr
module Rcu = Rcu
module Ibr = Ibr
module Hp = Hp
module Hazard_eras = Hazard_eras
module Leaky = Leaky
module Unsafe_free = Unsafe_free

(* Compile-time conformance of every scheme to the common signature. *)
module Conformance_check (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module _ : Smr_intf.S = Nbr.Make (Rt)
  module _ : Smr_intf.S = Nbr_plus.Make (Rt)
  module _ : Smr_intf.S = Debra.Make (Rt)
  module _ : Smr_intf.S = Qsbr.Make (Rt)
  module _ : Smr_intf.S = Rcu.Make (Rt)
  module _ : Smr_intf.S = Ibr.Make (Rt)
  module _ : Smr_intf.S = Hp.Make (Rt)
  module _ : Smr_intf.S = Hazard_eras.Make (Rt)
  module _ : Smr_intf.S = Leaky.Make (Rt)
  module _ : Smr_intf.S = Unsafe_free.Make (Rt)
end
