(** Flag-gated event tracing: per-thread rings, merged timelines, Chrome
    trace-event export.

    The repository's layers (runtimes, schemes, pool, workload) emit
    typed events here from their interesting transitions — signal
    traffic, neutralizations, read-phase restarts, reservation
    publications, reclamation sweeps, pool pressure, injected faults.
    Each worker thread writes to its own fixed-capacity ring
    (drop-oldest, no allocation, no atomics, cache-line padded), so
    tracing a run perturbs it as little as possible; a disabled trace
    costs emission sites exactly one plain load of {!on} and a not-taken
    branch.

    Protocol: call {!enable} before the run (it sizes one ring per
    thread), run, then read {!events} / {!to_chrome_json} /
    {!to_text}.  Timestamps are the runtime's [now_ns] — virtual in the
    simulator (deterministic timelines), CLOCK_MONOTONIC natively — and
    are passed in by the emitter, which keeps this library independent
    of the runtimes it observes. *)

type kind =
  | Signal_sent  (** a = target tid *)
  | Signal_delivered  (** a = pending count observed *)
  | Signal_consumed  (** a = signals consumed without restart *)
  | Neutralized  (** restartable victim aborts to its checkpoint *)
  | Restart  (** a read phase re-enters after an abort; a = attempt # *)
  | Reservation_publish  (** a = records published *)
  | Reclaim  (** a = records freed, b = records still pinned *)
  | Bag_push  (** a = slot, b = bag size after push *)
  | Bag_sweep  (** a = entries examined *)
  | Pool_starvation
      (** allocator entered the pressure retry loop; a = slots in use,
          b = retired-but-unreclaimed slots *)
  | Pool_overflow  (** a = slot rerouted to the shared overflow stack *)
  | Fault_action  (** a = 0 stall / 1 crash / 2 hog (fault-plan actions) *)
  | Heartbeat_timeout
      (** writer's handshake wait on a peer exceeded one backoff round;
          a = peer tid, b = backoff attempt # *)
  | Peer_declared_dead
      (** watchdog gave up on a frozen peer and adopted its state;
          a = peer tid, b = heartbeat value observed frozen *)
  | Orphan_adopted
      (** a live thread adopted an orphan parcel; a = origin tid,
          b = records adopted *)
  | Alloc_slot  (** fine: pool slot allocated; a = slot *)
  | Free_slot  (** fine: pool slot freed; a = slot *)
  | Retire  (** fine: slot retired (unlinked, awaiting reclamation); a = slot *)
  | Access
      (** fine: guarded dereference of a record; a = slot,
          b = pool state observed (0 free / 1 live / 2 retired) *)
  | Begin_op  (** fine: scheme [begin_op] — operation protection starts *)
  | End_op  (** fine: scheme [end_op] — operation protection retracted *)
  | Checkpoint_set
      (** fine: NBR-family read-phase checkpoint armed (begin_read):
          reservations cleared, thread restartable *)
  | Watermark_high
      (** pool occupancy crossed the high watermark (background reclaim
          requested); a = slots in use, b = high watermark *)
  | Watermark_low
      (** occupancy fell back below the low watermark; a = slots in use,
          b = low watermark *)
  | Bag_handoff
      (** a worker exported its limbo bag to the reclaimer's handoff
          channel instead of sweeping inline; a = slots handed,
          b = channel backlog after *)
  | Handoff_collect
      (** the reclaimer (or a post-trial drainer) adopted handed-off
          parcels as its own garbage; a = slots collected,
          b = channel backlog after *)
  | Async_sweep
      (** one background reclamation pass completed; a = records freed,
          b = channel backlog after *)
  | Degrade
      (** schemes fall back to inline reclamation; a = 0 backlog over
          threshold / 1 reclaimer fault, b = channel backlog *)
  | Restore
      (** background reclamation resumed after a degrade; a = channel
          backlog at restore *)
  | Handshake_timeout
      (** a bounded-wait broadcast handshake gave up on a peer after all
          escalation rounds; a = peer tid, b = rounds waited *)
  | Stale_handle
      (** fine: a generation-validated access went through a stale
          handle (its record was freed, possibly recycled);
          a = handle, b = the slot's current generation *)
  | Admission_shed
      (** the service guard rejected a request at admission (inflight
          budget full, shard browned out, or breaker open);
          a = shard, b = op class (0 read / 1 write / 2 scan) *)
  | Request_timeout
      (** an admitted request exceeded its deadline and completed as
          [Timed_out]; a = shard, b = lateness in ns *)
  | Request_retry
      (** a transiently-failed request is being retried after backoff;
          a = shard, b = attempt # (1-based) *)
  | Breaker_open
      (** a shard circuit breaker tripped fully open; a = shard,
          b = consecutive unhealthy polls observed *)
  | Breaker_half_open
      (** an open breaker let its cooldown elapse and entered half-open
          (probe) state; a = shard, b = probe budget *)
  | Breaker_close
      (** a half-open breaker's probes succeeded and it closed;
          a = shard, b = probe successes *)
  | Brownout
      (** a shard moved along the brownout ladder; a = shard,
          b = new level (0 healthy / 1 shed scans / 2 shed writes) *)

val kind_name : kind -> string

type event = {
  e_ns : int;  (** runtime timestamp, ns *)
  e_tid : int;
  e_seq : int;  (** per-thread emission index (absolute, monotone) *)
  e_kind : kind;
  e_a : int;
  e_b : int;
}

val on : bool ref
(** The gate.  Emission sites must check [!on] {e before} computing
    timestamps or arguments:
    [if !Trace.on then Trace.emit ~tid ~ns:(now_ns ()) Reclaim freed 0].
    Treat as read-only outside this module — {!enable} / {!disable} flip
    it. *)

val fine : bool ref
(** Second-tier gate for the protocol-event firehose ({!Alloc_slot},
    {!Free_slot}, {!Retire}, {!Access}, {!Stale_handle}, {!Begin_op},
    {!End_op}, {!Checkpoint_set}): true iff tracing is enabled {e and} verbose mode
    is on.  Emission sites for fine-grained events guard with [!fine]
    instead of [!on], so coarse timeline consumers (Perfetto export, CI
    trace assertions) never have their rings flooded by per-access
    events unless a checker asked for them via {!set_verbose}.  Treat as
    read-only outside this module. *)

val set_verbose : bool -> unit
(** Turn the fine-grained event tier on or off (persists across
    {!enable} / {!disable}; default off).  The protocol sanitizer sets
    this while attached. *)

val enable : ?capacity:int -> nthreads:int -> unit -> unit
(** Allocate one ring of [capacity] events (default 8192) per thread and
    start recording.  Replaces any previous rings. *)

val disable : unit -> unit
(** Stop recording; the rings stay readable. *)

val clear : unit -> unit
(** Stop recording and drop the rings. *)

val enabled : unit -> bool

val emit : tid:int -> ns:int -> kind -> int -> int -> unit
(** Record one event in [tid]'s ring (drop-oldest past capacity; no-op
    for out-of-range tids).  Single-writer: only thread [tid] may call
    this with its own id. *)

val subscribe : (event -> unit) option -> unit
(** Install (or with [None] remove) an online subscriber called
    synchronously from {!emit} with every recorded event.  Under the
    single-domain simulator the callbacks arrive in exact emission
    order — the substrate for the online protocol sanitizer
    ([Nbr_check.Sanitizer]).  Under the native runtime emitters call it
    concurrently and unsynchronized, so online checking is a
    sim-runtime tool.  At most one subscriber; the callback must not
    call {!emit}. *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around, across all threads. *)

val events : unit -> event list
(** The merged timeline: all surviving events sorted by timestamp, ties
    broken by (tid, per-thread order) — deterministic, and never
    reorders one thread's events against each other. *)

val to_text : unit -> string
(** Compact fixed-width text timeline (one event per line), for tests
    and terminal inspection. *)

val to_chrome_json : unit -> string
(** The merged timeline as Chrome trace-event JSON (instant events,
    [ts] in microseconds) — load the file in Perfetto or
    chrome://tracing. *)

val write_chrome_json : string -> int * int
(** [write_chrome_json path] writes {!to_chrome_json} to [path] and
    returns [(events written, events dropped)] — what a driver's
    [--trace-out] reports. *)
