(** The scaffolding every reclamation scheme shares (DESIGN.md §17).

    A scheme is a {!POLICY} — its protocol state, limbo layout and
    crash-recovery hooks — plus the protocol verbs it supplies on top of
    [Make (Rt) (Policy)]:

    {[
      module Policy (Rt : Nbr_runtime.Runtime_intf.S) = struct ... end

      module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
        module K = Scheme_kernel.Make (Rt) (Policy (Rt))
        include K
        open Policy (Rt)
        let retire c slot = ...   (* and the other family hooks *)
      end
    ]}

    [Policy] is a functor of its own so that the scheme's types are
    paths ([Scheme_kernel.Make(Rt)(Policy(Rt)).ctx]) that survive
    packing [Make (Rt)] as a first-class module.

    The kernel owns the context tables, statistics, deregistration,
    orphaning and watchdog reaping, limbo externalization, the operation
    brackets, the phase wrappers and the validated accessors.  Its
    values of {!Smr_intf.S} are {e defaults} for a scheme without
    protection (plain phases, unguarded reads, consumed staleness); each
    scheme overrides the ones its family changes. *)

(** How a scheme's published state is withdrawn when a thread leaves. *)
type ('s, 'l) recovery =
  | Reap of {
      retract : 's -> int -> unit;
          (** withdraw thread [tid]'s published protection
              (reservations, hazard or era slots) so it stops pinning
              records *)
      on_round : peer:int -> round:int -> unit;
          (** escalation per watchdog round against a frozen peer *)
    }
      (** The scheme takes part in crash recovery: its watchdog claims
          frozen peers, retracts their state and orphans their limbo; a
          graceful leave takes the same path. *)
  | Quiesce of ('s -> 'l -> int -> unit)
      (** No crash recovery: a graceful leave marks the thread
          quiescent (so it never pins a grace period), then orphans its
          limbo. *)

module type POLICY = sig
  type shared
  (** Per-instance protocol state. *)

  type local
  (** Per-thread protocol state, limbo included. *)

  val init :
    capacity:int -> side:(unit -> int) -> nthreads:int -> Smr_config.t -> shared
  (** [capacity] is the pool's, for per-slot metadata arrays.  [side ()]
      registers one per-slot side cell in the pool and returns its number
      for [P.side_cell]: metadata that lives, and is materialised, with
      the slot.  [init] runs before the pool's first allocation. *)

  val init_local : shared -> nthreads:int -> Smr_config.t -> local

  val buffered : local -> int
  (** Records in the thread's limbo. *)

  val drain : local -> (int -> unit) -> unit
  (** Empty the whole limbo, visiting every record. *)

  val adopt : shared -> local -> int -> unit
  (** Buffer a record adopted from an orphan or handoff parcel, as if
      retired now. *)

  val recovery : (shared, local) recovery
end

module Stateless : POLICY with type shared = unit and type local = unit
(** The policy of the two foils: no protocol state, no limbo. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) (Policy : POLICY) : sig
  module P : module type of struct
    include Nbr_pool.Pool.Make (Rt)
  end
  (** The pool operations, shared with the scheme built on top. *)

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : pool;
    n : int;
    cfg : Smr_config.t;
    s : Policy.shared;
    lc : Lifecycle.Make(Rt).t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
  }

  and ctx = { b : t; tid : int; st : Smr_stats.t; l : Policy.local }

  (** {1 Values of {!Smr_intf.S}} *)

  val create : pool -> nthreads:int -> Smr_config.t -> t
  val register : t -> tid:int -> ctx
  val deregister : ctx -> unit
  val adopt_orphans : ctx -> unit
  val set_offload : t -> Smr_intf.Offload.t option -> unit
  val limbo_size : ctx -> int
  val hand_off : ctx -> int
  val collect_handoffs : ctx -> int
  val stats : t -> Smr_stats.t
  val ctx_stats : ctx -> Smr_stats.t

  val begin_op : ctx -> unit
  (** {!enter_op}. *)

  val end_op : ctx -> unit
  (** {!trace_end_op}, then {!adopt_pending}. *)

  val phase : ctx -> read:(unit -> 'a * int array) -> write:('a -> 'b) -> 'b
  (** Non-restartable: both phases run unguarded; UAF reads commit. *)

  val read_only : ctx -> (unit -> 'a) -> 'a
  val read_root : ctx -> aint -> int
  val read_ptr : ctx -> src:int -> field:int -> int
  val read_raw : ctx -> aint -> int

  val read_data : ctx -> src:int -> field:int -> int
  (** Consumes a [Stale] read, counting it as UAF. *)

  val peek_ptr : ctx -> src:int -> field:int -> int

  (** {1 Building blocks for the protocol verbs} *)

  val enter_op : ctx -> unit
  (** The expulsion check and the [Begin_op] trace event. *)

  val trace_end_op : ctx -> unit
  (** The [End_op] trace event. *)

  val adopt_pending : ctx -> unit
  (** Adopt pending orphan parcels, if any (one stdlib atomic load when
      there are none). *)

  val note_retired : ctx -> int -> unit
  (** Mark a record retired in the pool and count it. *)

  val note_buffered : ctx -> unit
  (** Raise the bounded-garbage high-water mark to the limbo size. *)

  val maybe_offload : ctx -> bool
  (** Offer the whole limbo to the background reclaimer; [true] if it
      was handed off, [false] to sweep inline. *)

  val offload :
    ctx -> count:int -> (Policy.local -> (int -> unit) -> unit) -> bool
  (** {!maybe_offload} for the [count] records a custom drain empties. *)

  val buffer_retired : ctx -> int -> sweep:(ctx -> unit) -> unit
  (** The single-bag retire tail: buffer the record, run [sweep] once
      the limbo reaches the threshold unless {!maybe_offload} takes it,
      then {!note_buffered}. *)

  val watchdog : ctx -> unit
  (** The crash watchdog scan; a no-op for [Quiesce] policies. *)

  val restartable_phase :
    ctx -> read:(unit -> 'a * int array) -> write:('a -> 'b) -> 'b
  (** Runs the read phase under a restart checkpoint. *)

  val restartable_read_only : ctx -> (unit -> 'a) -> 'a

  val restart_read_data : ctx -> src:int -> field:int -> int
  (** Aborts the read phase on a [Stale] read. *)

  val restart_peek_ptr : ctx -> src:int -> field:int -> int

  val collect_sorted : ctx -> Rt.aint array array -> int array -> int
  (** [collect_sorted c rows scratch] loads every other thread's
      non-nil handles from [rows] into [scratch], sorted; returns the
      count. *)

  val mem_sorted : int array -> int -> int -> bool
  (** [mem_sorted a n x]: binary search of the sorted prefix [a.(0..n-1)]. *)
end
