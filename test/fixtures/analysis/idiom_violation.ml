(* Idiom fixture: the ported source-idiom rules on the shared findings
   engine — a type-system escape and raw cell addressing, through the
   pool's cell accessors and through the runtime's cell arrays. *)

let coerce x = Obj.magic x

let sneak pool h = Rt.load (P.ptr_cell pool h 0)

let forge () = Rt.make_cells 4 0

let poke cells = Rt.load (Rt.cell cells 1)
