(* Privacy-flow analysis: unit fixtures for each verdict kind, the
   lattice and closures on the worked examples, and differential
   properties against the brute-force oracle — the static bounds
   sandwich the true optimum, and pinning the flow fixings on the exact
   route's IP never changes its optimum. *)

module Q = Rat
module F = Core.Flow
module AF = Analysis.Flow
module Inst = Core.Instance
module Req = Core.Requirement
module Sol = Core.Solution
module E = Core.Engine
module C = Analysis.Wfcheck
module P = Wf.Parse
module M = Wf.Wmodule

let q = Alcotest.testable Q.pp Q.equal

(* The fixtures dune copies beside the test directory, found from the
   executable so the suite runs from any working directory. *)
let examples = Filename.concat (Filename.dirname Sys.executable_name) "../examples"
let example f = Filename.concat examples f

let spec_of text =
  match P.parse_string text with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let sorted l = List.sort compare l

let check_ok inst fl =
  match F.check inst fl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Flow.check rejected its own analysis: %s" e

(* --- fig1: everything referenced, nothing forced ---------------------- *)

let fig1_spec () =
  spec_of (In_channel.with_open_text (example "fig1.swf") In_channel.input_all)

let test_fig1_open () =
  let spec = fig1_spec () in
  let fl = AF.analyze spec in
  let k = fl.AF.kernel in
  Alcotest.(check (list string)) "no verdicts" []
    (List.map (fun (v : F.verdict) -> v.F.attr) k.F.verdicts);
  Alcotest.(check int) "all seven open" 7 (List.length k.F.undecided);
  Alcotest.(check bool) "no fixings" true (F.fixings k = []);
  Alcotest.(check bool) "feasible" true (k.F.infeasible_module = None);
  check_ok (Core.Instance.of_workflow spec.P.workflow ~gamma:spec.P.gamma
              ~gamma_overrides:spec.P.gamma_overrides
              ~cost:(fun a -> List.assoc a spec.P.costs)
              ~publics:spec.P.publics ())
    k;
  (* Every attribute sits at Derivable: referenced but not forced. *)
  List.iter
    (fun (a : AF.attr_info) ->
      Alcotest.(check string)
        (a.AF.attr ^ " level") "derivable"
        (AF.level_to_string a.AF.level))
    fl.AF.attrs

let test_fig1_closures () =
  let spec = fig1_spec () in
  let up, down = AF.closures spec.P.workflow in
  Alcotest.(check (list string)) "a6 upstream" [ "a1"; "a2"; "a3"; "a4" ] (up "a6");
  Alcotest.(check (list string)) "a1 downstream"
    [ "a3"; "a4"; "a5"; "a6"; "a7" ]
    (down "a1");
  Alcotest.(check (list string)) "a1 upstream empty" [] (up "a1");
  Alcotest.(check (list string)) "a7 downstream empty" [] (down "a7")

(* --- constant module: forced-cardinality must-hide --------------------- *)

let constant_text =
  "gamma 2\n\
   attr x cost 1\n\
   attr c cost 1\n\
   module k private inputs x outputs c\n\
   row k 0 -> 1\n\
   row k 1 -> 1\n"

let constant_inst () =
  let spec = spec_of constant_text in
  Inst.of_workflow spec.P.workflow ~gamma:spec.P.gamma
    ~cost:(fun a -> List.assoc a spec.P.costs)
    ()

let test_constant_must_hide () =
  let inst = constant_inst () in
  let fl = F.analyze inst in
  Alcotest.(check (list string)) "output forced" [ "c" ] (F.must_hide fl);
  Alcotest.(check (list string)) "input irrelevant" [ "x" ] (F.may_expose fl);
  (match List.find (fun (v : F.verdict) -> v.F.attr = "c") fl.F.verdicts with
  | { F.why = F.Forced_card { m_name = "k"; side = F.Outputs; pairs = 1 }; _ } -> ()
  | v -> Alcotest.failf "unexpected justification: %s" (F.justification_to_string v.F.why));
  Alcotest.(check (list (pair string q)))
    "fixings pin both" [ ("c", Q.one); ("x", Q.zero) ]
    (sorted (F.fixings fl));
  Alcotest.(check q) "lower bound = cost of c" Q.one fl.F.lower_cost;
  (match Core.Exact.brute_force inst with
  | Some b ->
      Alcotest.(check q) "lower bound is the optimum here" b.Sol.cost fl.F.lower_cost
  | None -> Alcotest.fail "constant instance is feasible");
  check_ok inst fl

(* --- set requirements: attribute in every option ----------------------- *)

let test_sets_in_every_option () =
  let one = Q.one in
  let inst =
    Inst.make
      ~attr_costs:[ ("a", one); ("b", one); ("c", one) ]
      ~mods:
        [
          {
            Inst.m_name = "m";
            inputs = [ "a"; "b" ];
            outputs = [ "c" ];
            req = Req.Sets [ ([ "a" ], [ "c" ]); ([ "a"; "b" ], []) ];
          };
        ]
      ()
  in
  let fl = F.analyze inst in
  Alcotest.(check (list string)) "a in every option" [ "a" ] (F.must_hide fl);
  (match List.find (fun (v : F.verdict) -> v.F.attr = "a") fl.F.verdicts with
  | { F.why = F.In_every_option { m_name = "m"; options = 2 }; _ } -> ()
  | v -> Alcotest.failf "unexpected justification: %s" (F.justification_to_string v.F.why));
  Alcotest.(check (list string)) "b c open" [ "b"; "c" ] (sorted fl.F.undecided);
  check_ok inst fl

(* --- unsatisfiable requirement: static infeasibility ------------------- *)

let test_infeasible () =
  let inst =
    Inst.make
      ~attr_costs:[ ("a", Q.one); ("b", Q.one); ("c", Q.one) ]
      ~mods:
        [
          {
            Inst.m_name = "m";
            inputs = [ "a"; "b" ];
            outputs = [ "c" ];
            req = Req.Card [ (3, 0) ];
          };
        ]
      ()
  in
  let fl = F.analyze inst in
  Alcotest.(check (option string)) "module named" (Some "m") fl.F.infeasible_module;
  Alcotest.(check bool) "no upper bound" true (fl.F.upper_cost = None);
  Alcotest.(check bool) "no fixings" true (F.fixings fl = []);
  Alcotest.(check bool) "oracle agrees" true (Core.Exact.brute_force inst = None);
  check_ok inst fl

(* --- genomics: lattice levels through public modules ------------------- *)

let test_genomics_lattice () =
  let spec =
    spec_of (In_channel.with_open_text (example "genomics.swf") In_channel.input_all)
  in
  let fl = AF.analyze spec in
  let info a = List.find (fun (i : AF.attr_info) -> i.AF.attr = a) fl.AF.attrs in
  (* raw1 is referenced by no requirement, but the public qc module
     couples it to relevant attributes: Derivable, not Independent. *)
  Alcotest.(check string) "raw1 derivable" "derivable"
    (AF.level_to_string (info "raw1").AF.level);
  Alcotest.(check bool) "raw1 may-expose" true
    (List.mem "raw1" (F.may_expose fl.AF.kernel));
  let qc = List.find (fun (m : AF.module_info) -> m.AF.m_name = "qc") fl.AF.modules in
  Alcotest.(check bool) "qc public" true qc.AF.public;
  Alcotest.(check int) "public gamma requested" 1 qc.AF.gamma_requested;
  List.iter
    (fun (m : AF.module_info) ->
      Alcotest.(check bool)
        (m.AF.m_name ^ " guaranteed <= achievable")
        true
        (m.AF.gamma_guaranteed <= m.AF.gamma_achievable))
    fl.AF.modules

(* --- lint integration: the W05x fixtures ------------------------------- *)

let codes_of text =
  match P.parse_raw_string text with
  | Error e -> Alcotest.failf "unexpected syntax error: %s" e
  | Ok raw -> List.map (fun (d : C.diagnostic) -> d.C.code) (C.check_raw raw)

let test_lint_w050 () =
  let text =
    "gamma 2\n\
     gamma relay 1\n\
     attr x cost 1\n\
     attr y cost 1\n\
     attr u cost 5\n\
     attr v cost 0\n\
     module m private inputs x outputs y\n\
     fn m negate\n\
     module relay private inputs u outputs v\n\
     fn relay negate\n"
  in
  Alcotest.(check (list string)) "exactly W050" [ "W050" ] (codes_of text)

let test_lint_w051 () =
  let text =
    "gamma 2\n\
     attr x cost 0\n\
     attr c cost 1\n\
     attr z cost 1\n\
     module k private inputs x outputs c\n\
     row k 0 -> 1\n\
     row k 1 -> 1\n\
     module p public cost 3 inputs c outputs z\n\
     fn p identity\n"
  in
  Alcotest.(check (list string)) "exactly W051" [ "W051" ] (codes_of text)

(* ------------------------------------------------------------------ *)
(* Properties: random workflows, gamma-1 overrides, constant-module     *)
(* substitutions and random publics exercise all verdict paths.         *)
(* ------------------------------------------------------------------ *)

let prop ?(count = 40) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_case =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_modules = int_range 1 4 in
    let* constant = bool in
    let* override = bool in
    let* with_publics = bool in
    let rng = Svutil.Rng.create seed in
    let w =
      Wf.Gen.random_workflow rng
        { Wf.Gen.default with n_modules; max_inputs = 2; max_outputs = 1 }
    in
    (* Sometimes make one module constant: its (single) output becomes a
       genuine must-hide, covering the Forced_card path. *)
    let w =
      if not constant then w
      else
        let mods = Wf.Workflow.modules w in
        let victim = List.nth mods (Svutil.Rng.int rng (List.length mods)) in
        let const_m =
          M.of_fun ~name:victim.M.name ~inputs:victim.M.inputs
            ~outputs:victim.M.outputs
            (fun _ -> Array.make (List.length victim.M.outputs) 0)
        in
        Wf.Workflow.with_modules w
          (List.map
             (fun (m : M.t) -> if m.M.name = victim.M.name then const_m else m)
             mods)
    in
    let costs = Wf.Gen.random_costs rng w in
    let publics = if with_publics then Wf.Gen.random_publics rng w else [] in
    (* A gamma-1 override makes that module's attributes unreferenced,
       covering the may-expose path. *)
    let gamma_overrides =
      if not override then []
      else
        let names = Wf.Workflow.module_names w in
        [ (List.nth names (Svutil.Rng.int rng (List.length names)), 1) ]
    in
    let inst =
      Inst.of_workflow w ~gamma:2 ~gamma_overrides
        ~cost:(fun a -> List.assoc a costs)
        ~publics ()
    in
    return (w, costs, publics, gamma_overrides, inst))

let engine_exact inst = E.run { (E.default_request inst) with E.meth = E.Exact }

(* The optimum of the exact route's IP with the flow verdicts pinned as
   bounds on the hiding columns; the engine pins nothing, so the two
   agree exactly when the verdicts keep the optimum. *)
let pinned_optimum inst =
  let problem, attr_var = Core.Exact.build_ip inst in
  let lb = Array.copy problem.Lp.Problem.lb and ub = Array.copy problem.Lp.Problem.ub in
  List.iter
    (fun (a, v) ->
      Option.iter
        (fun i ->
          lb.(attr_var.(i)) <- v;
          ub.(attr_var.(i)) <- Some v)
        (Inst.find inst a))
    (F.fixings (F.analyze inst));
  match Lp.Ilp.Hybrid.solve (Lp.Problem.with_bounds problem ~lb ~ub) with
  | Lp.Ilp.Optimal { objective; _ } -> Some objective
  | _ -> None

let props =
  [
    prop "static bounds sandwich the brute-force optimum" gen_case
      (fun (_, _, _, _, inst) ->
        let fl = F.analyze inst in
        match (fl.F.upper_cost, Core.Exact.brute_force inst) with
        | Some u, Some b ->
            Q.leq fl.F.lower_cost b.Sol.cost && Q.leq b.Sol.cost u
        | None, None -> true
        | Some _, None | None, Some _ -> false);
    prop "engine optimum is identical with and without static fixing" gen_case
      (fun (_, _, _, _, inst) ->
        match ((engine_exact inst).E.solution, pinned_optimum inst) with
        | Some a, Some o -> Q.equal a.Sol.cost o
        | None, None -> true
        | _ -> false);
    prop "every analysis passes its own certificate check" gen_case
      (fun (_, _, _, _, inst) ->
        match F.check inst (F.analyze inst) with Ok () -> true | Error _ -> false);
    prop "lattice is consistent with the kernel verdicts" gen_case
      (fun (w, costs, publics, gamma_overrides, _) ->
        let fl =
          AF.analyze_workflow ~publics ~gamma_overrides ~gamma:2
            ~cost:(fun a -> List.assoc a costs)
            w
        in
        let must = F.must_hide fl.AF.kernel in
        let may = F.may_expose fl.AF.kernel in
        List.for_all
          (fun (a : AF.attr_info) ->
            match a.AF.level with
            | AF.Hidden -> List.mem a.AF.attr must
            | AF.Independent -> List.mem a.AF.attr may
            | AF.Derivable -> not (List.mem a.AF.attr must))
          fl.AF.attrs);
    prop "must-hide attributes are hidden in every brute-force optimum"
      gen_case (fun (_, _, _, _, inst) ->
        let fl = F.analyze inst in
        match Core.Exact.brute_force inst with
        | None -> fl.F.upper_cost = None
        | Some b ->
            List.for_all
              (fun a -> List.mem a b.Sol.hidden)
              (F.must_hide fl))
  ]

let () =
  Alcotest.run "flow"
    [
      ( "kernel",
        [
          Alcotest.test_case "fig1 all open" `Quick test_fig1_open;
          Alcotest.test_case "constant module must-hide" `Quick test_constant_must_hide;
          Alcotest.test_case "sets in-every-option" `Quick test_sets_in_every_option;
          Alcotest.test_case "static infeasibility" `Quick test_infeasible;
        ] );
      ( "workflow layer",
        [
          Alcotest.test_case "fig1 closures" `Quick test_fig1_closures;
          Alcotest.test_case "genomics lattice" `Quick test_genomics_lattice;
        ] );
      ( "integration",
        [
          Alcotest.test_case "lint W050" `Quick test_lint_w050;
          Alcotest.test_case "lint W051" `Quick test_lint_w051;
        ] );
      ("properties", props);
    ]
