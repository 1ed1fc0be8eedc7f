(** Per-thread limbo bag: a FIFO of retired record slots.

    Entries are addressed by {e absolute position} — a counter of all pushes
    ever made — because NBR+ bookmarks a tail position when it crosses the
    LoWatermark and later reclaims "everything retired before the bookmark"
    (Algorithm 2, lines 14/19).  [sweep] examines the prefix of entries
    older than a bound, frees the unreserved ones and re-appends the
    reserved ones at the tail (they will be re-examined after a later grace
    period, which is safe: an entry is only ever {e more} retired as time
    passes).

    Thread-local: one bag per context, never shared. *)

type t = {
  mutable a : int array;
  mutable head : int;  (** ring index of the oldest entry *)
  mutable n : int;  (** live entries *)
  mutable base : int;  (** absolute position of the oldest entry *)
}

let create ?(capacity = 64) () =
  { a = Array.make (max capacity 1) 0; head = 0; n = 0; base = 0 }

let size t = t.n

(** Absolute position one past the newest entry; a bookmark taken now
    covers exactly the entries pushed so far. *)
let abs_tail t = t.base + t.n

let grow t =
  let cap = Array.length t.a in
  let a' = Array.make (2 * cap) 0 in
  for i = 0 to t.n - 1 do
    a'.(i) <- t.a.((t.head + i) mod cap)
  done;
  t.a <- a';
  t.head <- 0

let push t x =
  if t.n = Array.length t.a then grow t;
  t.a.((t.head + t.n) mod Array.length t.a) <- x;
  t.n <- t.n + 1

let pop_front t =
  if t.n = 0 then invalid_arg "Limbo_bag.pop_front: empty";
  let x = t.a.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.a;
  t.n <- t.n - 1;
  t.base <- t.base + 1;
  x

(** [sweep t ~upto ~keep ~free] examines every entry with absolute position
    [< upto]: reserved entries ([keep e = true]) are re-appended at the
    tail, the rest are freed.  Returns the number freed. *)
let sweep t ~upto ~keep ~free =
  let todo = min t.n (upto - t.base) in
  let freed = ref 0 in
  for _ = 1 to todo do
    let e = pop_front t in
    if keep e then push t e
    else begin
      free e;
      incr freed
    end
  done;
  !freed

let drain t f = sweep t ~upto:(abs_tail t) ~keep:(fun _ -> false) ~free:f

let iter f t =
  for i = 0 to t.n - 1 do
    f t.a.((t.head + i) mod Array.length t.a)
  done
