(* See trace.mli.  Hot-path shape: each worker owns one ring (struct of
   plain int arrays, the whole record padded so two writers never share a
   cache line), writes are [idx <- next mod cap] stores plus one mutable
   increment — no allocation, no atomics, drop-oldest by construction.
   The [on] flag is a plain ref: emission sites guard with [if !Trace.on]
   so a disabled trace costs exactly one load and a not-taken branch,
   mirroring the [faults_active] idiom of the native runtime.

   PR 5 adds a second tier: [fine] gates the protocol-event firehose
   (per-dereference accesses, per-slot alloc/retire/free, op and
   checkpoint boundaries) that the online sanitizer consumes.  Keeping it
   separate means the coarse timeline consumers (Perfetto export, the CI
   chaos assertions) never have their rings flooded by per-access events
   unless a checker asked for them. *)

type kind =
  | Signal_sent
  | Signal_delivered
  | Signal_consumed
  | Neutralized
  | Restart
  | Reservation_publish
  | Reclaim
  | Bag_push
  | Bag_sweep
  | Pool_starvation
  | Pool_overflow
  | Fault_action
  | Heartbeat_timeout
  | Peer_declared_dead
  | Orphan_adopted
  | Alloc_slot
  | Free_slot
  | Retire
  | Access
  | Begin_op
  | End_op
  | Checkpoint_set
  | Watermark_high
  | Watermark_low
  | Bag_handoff
  | Handoff_collect
  | Async_sweep
  | Degrade
  | Restore
  | Handshake_timeout
  | Stale_handle
  | Admission_shed
  | Request_timeout
  | Request_retry
  | Breaker_open
  | Breaker_half_open
  | Breaker_close
  | Brownout

let kind_code = function
  | Signal_sent -> 0
  | Signal_delivered -> 1
  | Signal_consumed -> 2
  | Neutralized -> 3
  | Restart -> 4
  | Reservation_publish -> 5
  | Reclaim -> 6
  | Bag_push -> 7
  | Bag_sweep -> 8
  | Pool_starvation -> 9
  | Pool_overflow -> 10
  | Fault_action -> 11
  | Heartbeat_timeout -> 12
  | Peer_declared_dead -> 13
  | Orphan_adopted -> 14
  | Alloc_slot -> 15
  | Free_slot -> 16
  | Retire -> 17
  | Access -> 18
  | Begin_op -> 19
  | End_op -> 20
  | Checkpoint_set -> 21
  | Watermark_high -> 22
  | Watermark_low -> 23
  | Bag_handoff -> 24
  | Handoff_collect -> 25
  | Async_sweep -> 26
  | Degrade -> 27
  | Restore -> 28
  | Handshake_timeout -> 29
  | Stale_handle -> 30
  | Admission_shed -> 31
  | Request_timeout -> 32
  | Request_retry -> 33
  | Breaker_open -> 34
  | Breaker_half_open -> 35
  | Breaker_close -> 36
  | Brownout -> 37

let kind_of_code = function
  | 0 -> Signal_sent
  | 1 -> Signal_delivered
  | 2 -> Signal_consumed
  | 3 -> Neutralized
  | 4 -> Restart
  | 5 -> Reservation_publish
  | 6 -> Reclaim
  | 7 -> Bag_push
  | 8 -> Bag_sweep
  | 9 -> Pool_starvation
  | 10 -> Pool_overflow
  | 11 -> Fault_action
  | 12 -> Heartbeat_timeout
  | 13 -> Peer_declared_dead
  | 14 -> Orphan_adopted
  | 15 -> Alloc_slot
  | 16 -> Free_slot
  | 17 -> Retire
  | 18 -> Access
  | 19 -> Begin_op
  | 20 -> End_op
  | 21 -> Checkpoint_set
  | 22 -> Watermark_high
  | 23 -> Watermark_low
  | 24 -> Bag_handoff
  | 25 -> Handoff_collect
  | 26 -> Async_sweep
  | 27 -> Degrade
  | 28 -> Restore
  | 29 -> Handshake_timeout
  | 30 -> Stale_handle
  | 31 -> Admission_shed
  | 32 -> Request_timeout
  | 33 -> Request_retry
  | 34 -> Breaker_open
  | 35 -> Breaker_half_open
  | 36 -> Breaker_close
  | 37 -> Brownout
  | _ -> Stale_handle

let kind_name = function
  | Signal_sent -> "signal_sent"
  | Signal_delivered -> "signal_delivered"
  | Signal_consumed -> "signal_consumed"
  | Neutralized -> "neutralized"
  | Restart -> "restart"
  | Reservation_publish -> "reservation_publish"
  | Reclaim -> "reclaim"
  | Bag_push -> "bag_push"
  | Bag_sweep -> "bag_sweep"
  | Pool_starvation -> "pool_starvation"
  | Pool_overflow -> "pool_overflow"
  | Fault_action -> "fault_action"
  | Heartbeat_timeout -> "heartbeat_timeout"
  | Peer_declared_dead -> "peer_declared_dead"
  | Orphan_adopted -> "orphan_adopted"
  | Alloc_slot -> "alloc_slot"
  | Free_slot -> "free_slot"
  | Retire -> "retire"
  | Access -> "access"
  | Begin_op -> "begin_op"
  | End_op -> "end_op"
  | Checkpoint_set -> "checkpoint_set"
  | Watermark_high -> "watermark_high"
  | Watermark_low -> "watermark_low"
  | Bag_handoff -> "bag_handoff"
  | Handoff_collect -> "handoff_collect"
  | Async_sweep -> "async_sweep"
  | Degrade -> "degrade"
  | Restore -> "restore"
  | Handshake_timeout -> "handshake_timeout"
  | Stale_handle -> "stale_handle"
  | Admission_shed -> "admission_shed"
  | Request_timeout -> "request_timeout"
  | Request_retry -> "request_retry"
  | Breaker_open -> "breaker_open"
  | Breaker_half_open -> "breaker_half_open"
  | Breaker_close -> "breaker_close"
  | Brownout -> "brownout"

type event = { e_ns : int; e_tid : int; e_seq : int; e_kind : kind; e_a : int; e_b : int }

(* One per thread; single writer.  [next] counts every event ever emitted
   to this ring, so [next - cap] (when positive) is the dropped count and
   [next mod cap] the write cursor. *)
type ring = {
  r_kind : int array;
  r_ns : int array;
  r_a : int array;
  r_b : int array;
  mutable next : int;
}

let mk_ring cap =
  Nbr_sync.Padded.copy_as_padded
    {
      r_kind = Array.make cap 0;
      r_ns = Array.make cap 0;
      r_a = Array.make cap 0;
      r_b = Array.make cap 0;
      next = 0;
    }

let on = ref false
let verbose = ref false
let fine = ref false
let rings : ring array ref = ref [||]
let cap = ref 0

(* Online subscriber (the protocol sanitizer).  Called synchronously from
   [emit], i.e. in true emission order under the single-domain simulator;
   under the native runtime concurrent emitters call it unsynchronized,
   so online checkers are a sim-runtime tool. *)
let sub : (event -> unit) option ref = ref None

let refresh_fine () = fine := !on && !verbose

let default_capacity = 8192

let enable ?(capacity = default_capacity) ~nthreads () =
  if nthreads < 1 then invalid_arg "Trace.enable: nthreads";
  if capacity < 1 then invalid_arg "Trace.enable: capacity";
  cap := capacity;
  rings := Array.init nthreads (fun _ -> mk_ring capacity);
  on := true;
  refresh_fine ()

let disable () =
  on := false;
  refresh_fine ()

let clear () =
  on := false;
  rings := [||];
  cap := 0;
  refresh_fine ()

let enabled () = !on

let set_verbose b =
  verbose := b;
  refresh_fine ()

let subscribe f = sub := f

let emit ~tid ~ns k a b =
  let rs = !rings in
  if tid >= 0 && tid < Array.length rs then begin
    let r = Array.unsafe_get rs tid in
    let c = !cap in
    let i = r.next mod c in
    Array.unsafe_set r.r_kind i (kind_code k);
    Array.unsafe_set r.r_ns i ns;
    Array.unsafe_set r.r_a i a;
    Array.unsafe_set r.r_b i b;
    r.next <- r.next + 1;
    match !sub with
    | None -> ()
    | Some f ->
        f { e_ns = ns; e_tid = tid; e_seq = r.next - 1; e_kind = k; e_a = a; e_b = b }
  end

let dropped () =
  Array.fold_left
    (fun acc r -> acc + max 0 (r.next - !cap))
    0 !rings

(* ------------------------------------------------------------------ *)
(* Merge: per-ring order is program order (single writer); across rings
   we sort by timestamp, breaking ties by (tid, per-ring sequence) so the
   merged timeline is deterministic and never reorders one thread's
   events against themselves. *)

let events () =
  let out = ref [] in
  Array.iteri
    (fun tid r ->
      let c = !cap in
      let n = min r.next c in
      let oldest = r.next - n in
      for i = 0 to n - 1 do
        let seq = oldest + i in
        let idx = seq mod c in
        out :=
          {
            e_ns = r.r_ns.(idx);
            e_tid = tid;
            e_seq = seq;
            e_kind = kind_of_code r.r_kind.(idx);
            e_a = r.r_a.(idx);
            e_b = r.r_b.(idx);
          }
          :: !out
      done)
    !rings;
  let a = Array.of_list !out in
  Array.sort
    (fun x y ->
      if x.e_ns <> y.e_ns then compare x.e_ns y.e_ns
      else if x.e_tid <> y.e_tid then compare x.e_tid y.e_tid
      else compare x.e_seq y.e_seq)
    a;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Exports. *)

let to_text () =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%12d t%-3d %-20s a=%d b=%d\n" e.e_ns e.e_tid
           (kind_name e.e_kind) e.e_a e.e_b))
    (events ());
  Buffer.contents b

(* Chrome trace-event format (the JSON Object Format variant), loadable
   in Perfetto / chrome://tracing.  Every event is an instant event
   ([ph:"i"], thread scope); [ts] is microseconds as a float, which keeps
   ns resolution for any plausible trial length. *)
let chrome_json evs =
  let b = Buffer.create 16384 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun e ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"name\":%S,\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"a\":%d,\"b\":%d}}"
           (kind_name e.e_kind)
           (float_of_int e.e_ns /. 1000.0)
           e.e_tid e.e_a e.e_b))
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let to_chrome_json () = chrome_json (events ())

let write_chrome_json path =
  let evs = events () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json evs));
  (List.length evs, dropped ())
