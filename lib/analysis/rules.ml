(* The R1–R4 phase-discipline rules (DESIGN.md §16).

   Client files (data structures, kv, workload, reclaim) are walked
   with a phase-context lattice {Other, Read, Write}: the lambdas of
   [Smr.phase ~read ~write] and [Smr.read_only] switch context, as do
   helpers annotated [@@nbr.read_phase] / [@@nbr.write_phase].  At each
   resolved call site:

   - R1 [read-phase-write]  — impure effects (shared writes, locks,
     alloc/retire/free, op bracketing) in Read context;
   - R2 [unguarded-deref]   — validated accessors (or read-phase
     helpers) in Other context, i.e. with no guard installed; plus the
     CFG dominance query: phase entries on paths not dominated by
     begin_op;
   - R3 [phase-bracket]     — the begin/end depth dataflow over each
     function's CFG, exception edges included;
   - R4 [write-phase-read]  — plain (unvalidated) shared reads in Read
     context; they are legal only on locked/reserved windows (Write)
     or in sequential code (Other).

   SMR-implementation files (schemes, the pool, the scheme kernel) are
   exempt from the client rules — they *implement* the guards — and
   instead get per-scheme-family R2 checks over summary closures:
   NBR/HP/HE/IBR phase entry must install a restart checkpoint,
   NBR-family read_ptr must poll for neutralization, HP/HE/IBR
   read_ptr must publish a reservation *and* validate slot liveness
   (the PR 4 unvalidated-ratchet bug class), and EBR-family begin_op
   must publish an epoch.  A checked verb the summaries cannot resolve
   is itself a finding. *)

type phase_ctx = Other | Read | Write

let rule_r1 = "read-phase-write"
let rule_r2 = "unguarded-deref"
let rule_r3 = "phase-bracket"
let rule_r4 = "write-phase-read"

let all_rules = [ rule_r1; rule_r2; rule_r3; rule_r4 ]

let callee_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      String.concat "." (Longident.flatten txt)
  | _ -> "?"

(* ------------------------------------------------------------------ *)
(* Scheme families for the R2 per-scheme checks *)

type family = Neutralization | Hazard | Epoch | Foil | Unknown_family

let family_of_scheme = function
  | "nbr" | "nbr+" -> Neutralization
  | "hp" | "he" | "ibr" -> Hazard
  | "debra" | "qsbr" | "rcu" -> Epoch
  | "none" | "unsafe-free" -> Foil
  | _ -> Unknown_family

let check_scheme (sum : Summary.t) (info : Summary.info) : Findings.t list =
  match info.scheme with
  | None -> []
  | Some s ->
      let fs = ref [] in
      let report loc fn msg =
        fs :=
          Findings.v ~rule:rule_r2 ~file:info.path ~loc
            (Printf.sprintf "scheme %s: %s %s" s fn msg)
          :: !fs
      in
      (* A verb the summaries cannot see (defined behind a module the
         analyzer does not resolve) must not pass its family check: the
         unresolved verbs are reported together at [scheme_name]. *)
      let scheme_loc =
        match Summary.lookup_fn sum info "scheme_name" with
        | Some e -> e.Summary.ent_loc
        | None -> Location.none
      in
      let unresolved = ref [] in
      let check fn bit msg =
        match Summary.lookup_fn sum info fn with
        | Some e ->
            (* A verb inherited through an [include] is reported in this
               file, at [scheme_name]. *)
            let loc =
              if Hashtbl.mem info.fns fn then e.Summary.ent_loc else scheme_loc
            in
            if e.Summary.closure land bit = 0 then report loc fn msg
        | None ->
            if not (List.mem fn !unresolved) then
              unresolved := fn :: !unresolved
      in
      (match family_of_scheme s with
      | Neutralization ->
          check "phase" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_only" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_ptr" Summary.poll "does not poll for neutralization"
      | Hazard ->
          check "phase" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_only" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_ptr" Summary.shared_write
            "does not publish a reservation or era";
          check "read_ptr" Summary.validate
            "publishes without validating slot liveness"
      | Epoch ->
          check "begin_op" Summary.shared_write
            "does not publish an epoch or quiescence announcement"
      | Foil | Unknown_family -> ());
      if !unresolved <> [] then
        report scheme_loc
          (String.concat ", " (List.rev !unresolved))
          "not resolvable";
      List.rev !fs

(* ------------------------------------------------------------------ *)
(* Client walk *)

let check (sum : Summary.t) (info : Summary.info)
    (waivers : Findings.Waivers.t) : Findings.t list =
  let open Ast_iterator in
  let fs = ref [] in
  let report ~rule ~loc msg =
    fs := Findings.v ~rule ~file:info.path ~loc msg :: !fs
  in
  let client = not (Summary.is_smr_impl info) in
  let cur = ref Other in
  let with_ctx c f =
    let saved = !cur in
    cur := c;
    f ();
    cur := saved
  in
  let classify (e : Parsetree.expression) : Cfg.event list =
    match Summary.call_effect sum info e with
    | Some (ce, _, _) ->
        let ev = [] in
        let ev = if ce land Summary.begins <> 0 then Cfg.Begins :: ev else ev in
        let ev = if ce land Summary.ends <> 0 then Cfg.Ends :: ev else ev in
        let ev = if ce land Summary.phase <> 0 then Cfg.Phase :: ev else ev in
        let ev = if ce land Summary.raises <> 0 then Cfg.Raise :: ev else ev in
        ev
    | None -> []
  in
  let cfg_check (body : Parsetree.expression) =
    if client then begin
      let g = Cfg.build ~classify body in
      let interesting =
        Array.exists
          (fun n -> Cfg.has Cfg.Begins n || Cfg.has Cfg.Ends n)
          g.Cfg.nodes
      in
      if interesting then begin
        List.iter
          (fun v ->
            match v with
            | Cfg.Stray_end loc ->
                report ~rule:rule_r3 ~loc
                  "end_op with no matching begin_op on this path"
            | Cfg.Nested_begin loc ->
                report ~rule:rule_r3 ~loc
                  "begin_op while an operation is already open"
            | Cfg.Open_at_return loc ->
                report ~rule:rule_r3 ~loc "operation can exit without end_op"
            | Cfg.Open_at_raise loc ->
                report ~rule:rule_r3 ~loc
                  "operation left open on an exception path")
          (Cfg.check_balance g);
        List.iter
          (fun loc ->
            report ~rule:rule_r2 ~loc
              "phase entered on a path not dominated by begin_op")
          (Cfg.unguarded_phases g)
      end
    end
  in
  let node_checks ce (cann : Summary.ann option) name loc =
    if client then
      match !cur with
      | Read -> (
          match cann with
          | Some Summary.Write_phase ->
              report ~rule:rule_r1 ~loc
                (Printf.sprintf "write-phase helper %s called in read phase"
                   name)
          | Some Summary.Read_phase -> ()
          | None ->
              let bad =
                ce
                land (Summary.impure lor Summary.begins lor Summary.ends
                     lor Summary.phase)
              in
              if bad <> 0 then
                report ~rule:rule_r1 ~loc
                  (Printf.sprintf "%s: %s in read phase" name
                     (Summary.pp_bits bad));
              if ce land Summary.plain <> 0 then
                report ~rule:rule_r4 ~loc
                  (Printf.sprintf
                     "%s: plain shared read in read phase (use a validated \
                      accessor)"
                     name))
      | Other -> (
          match cann with
          | Some Summary.Read_phase ->
              report ~rule:rule_r2 ~loc
                (Printf.sprintf "read-phase helper %s called outside any phase"
                   name)
          | Some Summary.Write_phase -> ()
          | None ->
              if ce land Summary.validated <> 0 then
                report ~rule:rule_r2 ~loc
                  (Printf.sprintf "%s: validated dereference outside any phase"
                     name))
      | Write -> ()
  in
  let rec enter_fn (e : Parsetree.expression) =
    let body = Summary.peel_fun e in
    match body.pexp_desc with
    | Pexp_function cases ->
        List.iter
          (fun (c : Parsetree.case) ->
            (match c.pc_guard with Some g -> it.expr it g | None -> ());
            it.expr it c.pc_rhs)
          cases
    | _ ->
        cfg_check body;
        it.expr it body
  and it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          List.iter
            (Findings.Waivers.note waivers ~file:info.path ~loc:e.pexp_loc)
            e.pexp_attributes;
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> enter_fn e
          | Pexp_apply ({ pexp_desc = Pexp_ident _; _ }, args) -> (
              match Summary.call_effect sum info e with
              | Some (ce, _, cann) ->
                  node_checks ce cann (callee_name e) e.pexp_loc;
                  List.iter
                    (fun ((lbl : Asttypes.arg_label), a) ->
                      if Summary.is_function a then
                        if
                          ce land (Summary.phase lor Summary.checkpoint) <> 0
                        then
                          let actx =
                            match lbl with
                            | Labelled "write" -> Write
                            | _ -> Read
                          in
                          with_ctx actx (fun () -> enter_fn a)
                        else enter_fn a
                      else self.expr self a)
                    args
              | None -> Ast_iterator.default_iterator.expr self e)
          | _ -> Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          List.iter
            (Findings.Waivers.note waivers ~file:info.path ~loc:vb.pvb_loc)
            vb.pvb_attributes;
          if Summary.is_function vb.pvb_expr then
            let ctx =
              match Summary.ann_of_attrs vb.pvb_attributes with
              | Some Summary.Read_phase -> Read
              | Some Summary.Write_phase -> Write
              | None -> !cur
            in
            with_ctx ctx (fun () -> enter_fn vb.pvb_expr)
          else self.expr self vb.pvb_expr);
    }
  in
  it.structure it info.structure;
  List.rev_append !fs (check_scheme sum info)
