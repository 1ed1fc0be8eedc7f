(* Scheme fixture: an NBR-family scheme whose protocol verbs come from a
   module outside the analyzed file set.  Its [phase] may or may not
   install a restart checkpoint, and its [read_ptr] may or may not poll:
   the analyzer cannot tell, so it must report the verbs it could not
   resolve instead of passing the family check. *)

let scheme_name = "nbr"

include Hidden_kernel.Make (Rt)
