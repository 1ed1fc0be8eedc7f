(** Per-thread limbo bag: a FIFO of retired record slots.

    Entries are addressed by {e absolute position} — a counter of all
    pushes ever made — because NBR+ bookmarks a tail position when it
    crosses the LoWatermark and later reclaims "everything retired
    before the bookmark" (Algorithm 2, lines 14/19).  {!sweep} examines
    the prefix of entries older than a bound, frees the unreserved ones
    and re-appends the reserved ones at the tail (they will be
    re-examined after a later grace period, which is safe: an entry is
    only ever {e more} retired as time passes).

    Thread-local: one bag per context, never shared.  The background
    reclaimer (DESIGN.md §12) never touches a worker's bag directly —
    externalization flattens bags into handoff parcels on the owner's
    own retire path. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh empty bag; the backing ring (default 64 entries) grows by
    doubling as needed. *)

val size : t -> int
(** Live entries currently buffered. *)

val abs_tail : t -> int
(** Absolute position one past the newest entry; a bookmark taken now
    covers exactly the entries pushed so far. *)

val push : t -> int -> unit
(** Append a retired slot at the tail. *)

val pop_front : t -> int
(** Remove and return the oldest entry.  Raises [Invalid_argument] when
    empty. *)

val sweep : t -> upto:int -> keep:(int -> bool) -> free:(int -> unit) -> int
(** [sweep t ~upto ~keep ~free] examines every entry with absolute
    position [< upto]: reserved entries ([keep e = true]) are
    re-appended at the tail, the rest are passed to [free].  Returns the
    number freed. *)

val drain : t -> (int -> unit) -> int
(** [drain t f] empties the bag, passing every entry to [f] oldest
    first; returns the number drained. *)

val iter : (int -> unit) -> t -> unit
(** Visit every live entry, oldest first, without disturbing the bag. *)
