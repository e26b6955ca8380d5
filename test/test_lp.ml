module Q = Rat
module P = Lp.Problem

let q = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check q

let set_objective p terms = List.iter (fun (v, c) -> P.set_cost p v c) terms

(* A tiny DSL for building snapshots in tests. [vars] is a list of
   (name, ub option, integer); constraints and the objective are
   (var, coef) lists over variable indexes. *)
let build ~vars ~constraints ~objective =
  let p = P.create () in
  List.iter (fun (_, ub, integer) -> ignore (P.add_var ?ub ~integer p)) vars;
  List.iter (fun (terms, cmp, rhs) -> P.add_row p terms cmp rhs) constraints;
  set_objective p objective;
  let names = Array.of_list (List.map (fun (name, _, _) -> name) vars) in
  P.snapshot ~name:(Array.get names) p

(* Row [r] of a snapshot as a (var, coef) list. *)
let row_terms (s : P.snapshot) r =
  List.init
    (s.P.row_start.(r + 1) - s.P.row_start.(r))
    (fun k -> (s.P.term_var.(s.P.row_start.(r) + k), s.P.term_coef.(s.P.row_start.(r) + k)))

let cvar ?ub name = (name, ub, false)
let ivar ?ub name = (name, ub, true)

let feasible (s : P.snapshot) values =
  Array.for_all2
    (fun lb v -> Q.leq lb v)
    s.P.lb values
  && Array.for_all2
       (fun ub v -> match ub with None -> true | Some u -> Q.leq v u)
       s.P.ub values
  && List.for_all
       (fun r ->
         let v = P.row_value s r values and rhs = s.P.rhs.(r) in
         match s.P.cmp.(r) with
         | P.Le -> Q.leq v rhs
         | P.Ge -> Q.geq v rhs
         | P.Eq -> Q.equal v rhs)
       (List.init s.P.m Fun.id)

(* ------------------------------------------------------------------ *)
(* Simplex unit tests (run against both solvers)                       *)
(* ------------------------------------------------------------------ *)

let simplex_cases =
  (* (name, snapshot, expected) where expected is `Obj q | `Infeasible | `Unbounded *)
  [
    ( "maximize x+y on simplex",
      build
        ~vars:[ cvar "x"; cvar "y" ]
        ~constraints:[ ([ (0, Q.one); (1, Q.one) ], P.Le, Q.one) ]
        ~objective:[ (0, Q.minus_one); (1, Q.minus_one) ],
      `Obj Q.minus_one );
    ( "fractional vertex",
      (* min 2x+3y st x+2y>=4, 3x+y>=6: optimum at (8/5,6/5), obj 34/5 *)
      build
        ~vars:[ cvar "x"; cvar "y" ]
        ~constraints:
          [
            ([ (0, Q.one); (1, Q.two) ], P.Ge, Q.of_int 4);
            ([ (0, Q.of_int 3); (1, Q.one) ], P.Ge, Q.of_int 6);
          ]
        ~objective:[ (0, Q.two); (1, Q.of_int 3) ],
      `Obj (Q.of_ints 34 5) );
    ( "equality constraint",
      (* min x+2y st x+y=3, x<=1 -> x=1,y=2, obj 5 *)
      build
        ~vars:[ cvar ~ub:Q.one "x"; cvar "y" ]
        ~constraints:[ ([ (0, Q.one); (1, Q.one) ], P.Eq, Q.of_int 3) ]
        ~objective:[ (0, Q.one); (1, Q.two) ],
      `Obj (Q.of_int 5) );
    ( "upper bound binds",
      (* min -x st x <= 3/2 *)
      build
        ~vars:[ cvar ~ub:(Q.of_ints 3 2) "x" ]
        ~constraints:[]
        ~objective:[ (0, Q.minus_one) ],
      `Obj (Q.of_ints (-3) 2) );
    ( "infeasible",
      build
        ~vars:[ cvar ~ub:Q.one "x" ]
        ~constraints:[ ([ (0, Q.one) ], P.Ge, Q.two) ]
        ~objective:[ (0, Q.one) ],
      `Infeasible );
    ( "infeasible bounds",
      build
        ~vars:[ ("x", Some Q.minus_one, false) ]
        ~constraints:[]
        ~objective:[ (0, Q.one) ],
      `Infeasible );
    ( "unbounded",
      build ~vars:[ cvar "x" ] ~constraints:[] ~objective:[ (0, Q.minus_one) ],
      `Unbounded );
    ( "degenerate vertex",
      (* Three constraints through the same optimum (0,1):
         min -y st y<=1, x+y<=1, -x+y<=1 *)
      build
        ~vars:[ cvar "x"; cvar "y" ]
        ~constraints:
          [
            ([ (1, Q.one) ], P.Le, Q.one);
            ([ (0, Q.one); (1, Q.one) ], P.Le, Q.one);
            ([ (0, Q.minus_one); (1, Q.one) ], P.Le, Q.one);
          ]
        ~objective:[ (1, Q.minus_one) ],
      `Obj Q.minus_one );
    ( "negative lower bound",
      (let p = P.create () in
       let x = P.add_var ~lb:(Q.of_int (-5)) p in
       P.add_row p [ (x, Q.one) ] P.Ge (Q.of_int (-2));
       P.set_cost p x Q.one;
       P.snapshot p),
      `Obj (Q.of_int (-2)) );
    ( "redundant equalities",
      (* x+y=2 listed twice plus x-y=0 -> x=y=1 *)
      build
        ~vars:[ cvar "x"; cvar "y" ]
        ~constraints:
          [
            ([ (0, Q.one); (1, Q.one) ], P.Eq, Q.two);
            ([ (0, Q.one); (1, Q.one) ], P.Eq, Q.two);
            ([ (0, Q.one); (1, Q.minus_one) ], P.Eq, Q.zero);
          ]
        ~objective:[ (0, Q.of_int 7); (1, Q.of_int 11) ],
      `Obj (Q.of_int 18) );
  ]

let simplex_tests (module S : Lp.Simplex.SOLVER) =
  List.map
    (fun (name, snap, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          match (S.solve snap, expected) with
          | Lp.Simplex.Optimal { objective; values }, `Obj want ->
              check_q "objective" want objective;
              Alcotest.(check bool) "solution feasible" true (feasible snap values)
          | Lp.Simplex.Infeasible, `Infeasible -> ()
          | Lp.Simplex.Unbounded, `Unbounded -> ()
          | got, _ ->
              let show = function
                | Lp.Simplex.Optimal { objective; _ } -> "Optimal " ^ Q.to_string objective
                | Lp.Simplex.Infeasible -> "Infeasible"
                | Lp.Simplex.Unbounded -> "Unbounded"
              in
              Alcotest.failf "unexpected result: %s" (show got)))
    simplex_cases

(* ------------------------------------------------------------------ *)
(* Certify unit tests                                                  *)
(* ------------------------------------------------------------------ *)

(* Drive Certify.check directly on hand-built float answers, so its
   accept and reject branches are pinned by tests that do not depend on
   what Fsimplex happens to find. *)
let counter = Svutil.Metrics.counter_value

let certify_snap_le1 =
  (* min -x-y st x+y <= 1: optimum -1 at a vertex with one var basic. *)
  build
    ~vars:[ cvar "x"; cvar "y" ]
    ~constraints:[ ([ (0, Q.one); (1, Q.one) ], P.Le, Q.one) ]
    ~objective:[ (0, Q.minus_one); (1, Q.minus_one) ]

(* x basic at 1 in the single row, y and the slack at 0, row dual [y]. *)
let le1_answer y =
  Lp.Fsimplex.Optimal { basis = [| 0 |]; at_upper = [| false; false |]; xb = [| 1. |]; y = [| y |] }

let test_certify_accept () =
  (* Rows hold, and every reduced cost is 0 but the slack's, which is 1
     with the slack at its lower bound: accepted as it stands. *)
  let m = Svutil.Metrics.create () in
  match Lp.Certify.check ~metrics:m certify_snap_le1 (le1_answer (-1.)) with
  | Lp.Certify.Cert_optimal { objective; values } ->
      check_q "objective" Q.minus_one objective;
      check_q "x" Q.one values.(0);
      check_q "y" Q.zero values.(1);
      Alcotest.(check int) "one accept" 1 (counter m "certify.accepts")
  | _ -> Alcotest.fail "expected Cert_optimal"

let test_certify_fallback_singular () =
  (* Two parallel rows and the basis {x, y}: with both slacks at 0 the
     rows ask for x + y = 1 and 2x + 2y = 3 at once, so no point claimed
     on this singular basis checks, whatever its (dual feasible) dual. *)
  let s =
    build
      ~vars:[ cvar "x"; cvar "y" ]
      ~constraints:
        [
          ([ (0, Q.one); (1, Q.one) ], P.Le, Q.one);
          ([ (0, Q.two); (1, Q.two) ], P.Le, Q.of_int 3);
        ]
      ~objective:[ (0, Q.minus_one); (1, Q.minus_one) ]
  in
  List.iter
    (fun xb ->
      match
        Lp.Certify.check s
          (Lp.Fsimplex.Optimal
             { basis = [| 0; 1 |]; at_upper = [| false; false |]; xb; y = [| -1.; 0. |] })
      with
      | Lp.Certify.Cert_fail -> ()
      | _ -> Alcotest.fail "expected Cert_fail on a singular basis")
    [ [| 1.; 0. |]; [| 0.5; 0.5 |]; [| 1.5; 0. |]; [| 0.75; 0.75 |] ]

let test_exact_after_float_pivots () =
  (* Hybrid's float pass pivots, yet the answer is the exact rational
     optimum, not a float approximation of it. *)
  let s = (fun (_, snap, _) -> snap) (List.nth simplex_cases 1) in
  let mh = Svutil.Metrics.create () in
  (match Lp.Simplex.Hybrid.solve ~metrics:mh s with
  | Lp.Simplex.Optimal { objective; _ } -> check_q "hybrid optimum" (Q.of_ints 34 5) objective
  | _ -> Alcotest.fail "hybrid should solve");
  Alcotest.(check bool) "hybrid pivoted in floats" true
    (counter mh "simplex.hybrid.float_pivots" > 0);
  (* One float pass and one certification, which accepts the float
     optimum. *)
  List.iter
    (fun path ->
      Alcotest.(check (option int)) path (Some 1)
        (Option.map fst (Svutil.Metrics.span_stats mh path)))
    [ "lp/float"; "lp/certify" ];
  Alcotest.(check int) "accepted" 1 (counter mh "certify.accepts");
  (* Negative costs on columns without an upper bound leave the dual
     pass no dual-feasible start: the exact solver answers, once. *)
  let s = (fun (_, snap, _) -> snap) (List.hd simplex_cases) in
  let mf = Svutil.Metrics.create () in
  (match Lp.Simplex.Hybrid.solve ~metrics:mf s with
  | Lp.Simplex.Optimal { objective; _ } -> check_q "fallback optimum" Q.minus_one objective
  | _ -> Alcotest.fail "hybrid should solve");
  Alcotest.(check int) "one fallback" 1 (counter mf "certify.fallbacks")

let test_warm_fixed_columns () =
  (* Branch-and-bound nodes fix columns (lb = ub), whose reduced costs
     may carry either sign. Every node must come back from the warm
     dual pass with a certificate that checks as is: no fallback, and
     the exact solver's answers. *)
  let s =
    build
      ~vars:[ ivar ~ub:Q.one "a"; ivar ~ub:Q.one "b"; ivar ~ub:Q.one "c" ]
      ~constraints:
        [
          ([ (0, Q.one); (1, Q.one) ], P.Ge, Q.one);
          ([ (1, Q.one); (2, Q.one) ], P.Ge, Q.one);
          ([ (0, Q.one); (2, Q.one) ], P.Ge, Q.one);
        ]
      ~objective:[ (0, Q.one); (1, Q.two); (2, Q.of_int 3) ]
  in
  let m = Svutil.Metrics.create () in
  let root, w =
    match Lp.Simplex.Hybrid.warm_create ~metrics:m s with
    | root, Some w -> (root, w)
    | _, None -> Alcotest.fail "the hybrid solver always keeps a warm state"
  in
  let same name snap got =
    match (got, Lp.Simplex.Exact.solve snap) with
    | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
        check_q name b.objective a.objective;
        Alcotest.(check bool) (name ^ " point feasible") true (feasible snap a.values)
    | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> ()
    | _ -> Alcotest.failf "%s: hybrid and exact disagree" name
  in
  same "root" s root;
  let node name bounds =
    let lb = Array.copy s.P.lb and ub = Array.copy s.P.ub in
    List.iter
      (function
        | `Le (i, v) -> ub.(i) <- Some (Q.of_int v)
        | `Ge (i, v) -> lb.(i) <- Q.of_int v)
      bounds;
    same name (P.with_bounds s ~lb ~ub) (Lp.Simplex.Hybrid.warm_solve w ~lb ~ub)
  in
  node "a <= 0" [ `Le (0, 0) ];
  node "a >= 1" [ `Ge (0, 1) ];
  node "a <= 0, b <= 0" [ `Le (0, 0); `Le (1, 0) ];
  node "b >= 1, c <= 0" [ `Ge (1, 1); `Le (2, 0) ];
  node "root again" [];
  List.iter
    (fun (c, want) -> Alcotest.(check int) c want (counter m c))
    [ ("certify.accepts", 5); ("certify.fallbacks", 0) ]

(* The float pass's answer for a snapshot under its own bounds. *)
let float_answer (s : P.snapshot) =
  Lp.Fsimplex.solve (Lp.Fsimplex.create s) ~lb:s.P.lb ~ub:s.P.ub

let test_certify_beyond_recovery_bound () =
  (* min x st 1048583 x >= 1: the optimum 1/1048583 has a denominator
     above the 2^20 recovery bound, so the float optimum cannot be read
     back, and the exact solver answers through one fallback. *)
  let big = 1048583 in
  let s =
    build
      ~vars:[ cvar "x" ]
      ~constraints:[ ([ (0, Q.of_int big) ], P.Ge, Q.one) ]
      ~objective:[ (0, Q.one) ]
  in
  (match float_answer s with
  | Lp.Fsimplex.Optimal _ as found -> (
      match Lp.Certify.check s found with
      | Lp.Certify.Cert_fail -> ()
      | _ -> Alcotest.fail "a value beyond the recovery bound must not certify")
  | _ -> Alcotest.fail "the float pass should find the optimum");
  let m = Svutil.Metrics.create () in
  (match Lp.Simplex.Hybrid.solve ~metrics:m s with
  | Lp.Simplex.Optimal { objective; _ } -> check_q "objective" (Q.of_ints 1 big) objective
  | _ -> Alcotest.fail "expected the exact optimum");
  Alcotest.(check int) "one fallback" 1 (counter m "certify.fallbacks");
  Alcotest.(check int) "no accept" 0 (counter m "certify.accepts")

let test_certify_perturbed_dual () =
  (* A dual moved by 1/2 still recovers as a rational, so the exact
     check itself must reject the pair: on the hand-built optimum above,
     and on the float pass's own optimum of the fractional vertex. *)
  let m = Svutil.Metrics.create () in
  (match Lp.Certify.check ~metrics:m certify_snap_le1 (le1_answer (-0.5)) with
  | Lp.Certify.Cert_fail -> ()
  | _ -> Alcotest.fail "a perturbed dual must not certify");
  let s = (fun (_, snap, _) -> snap) (List.nth simplex_cases 1) in
  (match float_answer s with
  | Lp.Fsimplex.Optimal o -> (
      (match Lp.Certify.check ~metrics:m s (Lp.Fsimplex.Optimal o) with
      | Lp.Certify.Cert_optimal _ -> ()
      | _ -> Alcotest.fail "the float optimum must certify as it stands");
      let y = Array.copy o.y in
      y.(0) <- y.(0) +. 0.5;
      match Lp.Certify.check ~metrics:m s (Lp.Fsimplex.Optimal { o with y }) with
      | Lp.Certify.Cert_fail -> ()
      | _ -> Alcotest.fail "a perturbed dual must not certify")
  | _ -> Alcotest.fail "the float pass should find the optimum");
  Alcotest.(check int) "only the unperturbed pair accepted" 1 (counter m "certify.accepts");
  (* The float pass offers no certificate for [certify_snap_le1] (its
     negative costs have no upper bound): Hybrid answers through one
     fallback. *)
  let mh = Svutil.Metrics.create () in
  (match Lp.Simplex.Hybrid.solve ~metrics:mh certify_snap_le1 with
  | Lp.Simplex.Optimal { objective; _ } -> check_q "fallback optimum" Q.minus_one objective
  | _ -> Alcotest.fail "hybrid should solve");
  Alcotest.(check int) "one fallback" 1 (counter mh "certify.fallbacks")

let test_certify_infeasible_eq () =
  (* min x+y st x+y = 3, x, y <= 1: the Eq row's logical, fixed at 0,
     ends above its bound with no column left to enter. Its row of B^-1,
     negated, is an infeasibility certificate: no fallback. *)
  let s =
    build
      ~vars:[ cvar ~ub:Q.one "x"; cvar ~ub:Q.one "y" ]
      ~constraints:[ ([ (0, Q.one); (1, Q.one) ], P.Eq, Q.of_int 3) ]
      ~objective:[ (0, Q.one); (1, Q.one) ]
  in
  let m = Svutil.Metrics.create () in
  (match Lp.Simplex.Hybrid.solve ~metrics:m s with
  | Lp.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible");
  Alcotest.(check int) "no fallback" 0 (counter m "certify.fallbacks");
  (* A dual of the wrong sign proves nothing. *)
  match Lp.Certify.check s (Lp.Fsimplex.Infeasible { y = [| 1. |] }) with
  | Lp.Certify.Cert_fail -> ()
  | _ -> Alcotest.fail "y = 1 is no infeasibility certificate"

let certify_tests =
  [
    Alcotest.test_case "accept optimal basis" `Quick test_certify_accept;
    Alcotest.test_case "fail on singular basis" `Quick test_certify_fallback_singular;
    Alcotest.test_case "exact optimum after float pivots" `Quick
      test_exact_after_float_pivots;
    Alcotest.test_case "fallback past the recovery bound" `Quick
      test_certify_beyond_recovery_bound;
    Alcotest.test_case "perturbed dual is rejected" `Quick
      test_certify_perturbed_dual;
    Alcotest.test_case "warm path across fixed columns" `Quick
      test_warm_fixed_columns;
    Alcotest.test_case "infeasible equality row" `Quick test_certify_infeasible_eq;
  ]

(* ------------------------------------------------------------------ *)
(* ILP unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_ilp_knapsack () =
  (* max 3x+4y st 2x+3y<=6, x,y in {0,1,2} -> x=0,y=2, value 8 *)
  let s =
    build
      ~vars:[ ivar ~ub:Q.two "x"; ivar ~ub:Q.two "y" ]
      ~constraints:[ ([ (0, Q.two); (1, Q.of_int 3) ], P.Le, Q.of_int 6) ]
      ~objective:[ (0, Q.of_int (-3)); (1, Q.of_int (-4)) ]
  in
  match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Optimal { objective; values } ->
      check_q "objective" (Q.of_int (-8)) objective;
      check_q "x" Q.zero values.(0);
      check_q "y" Q.two values.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_metrics_consistency () =
  (* The registry is fed by the same [finished] flush that fills the
     stats record, so the two node counts must agree exactly; the node
     LP solves feed the simplex counters of the same registry. *)
  let s =
    build
      ~vars:[ ivar ~ub:Q.two "x"; ivar ~ub:Q.two "y" ]
      ~constraints:[ ([ (0, Q.two); (1, Q.of_int 3) ], P.Le, Q.of_int 6) ]
      ~objective:[ (0, Q.of_int (-3)); (1, Q.of_int (-4)) ]
  in
  let m = Svutil.Metrics.create () in
  let result, stats = Lp.Ilp.Exact.solve_with_stats ~metrics:m s in
  (match result with
  | Lp.Ilp.Optimal { objective; _ } -> check_q "objective" (Q.of_int (-8)) objective
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check int) "registry nodes = stats nodes" stats.Lp.Ilp.nodes
    (Svutil.Metrics.counter_value m "ilp.nodes");
  Alcotest.(check bool) "node LPs pivot" true
    (Svutil.Metrics.counter_value m "simplex.pivots" > 0);
  (* A direct simplex solve on its own registry reports one cold start. *)
  let ms = Svutil.Metrics.create () in
  (match Lp.Simplex.Exact.solve ~metrics:ms (P.relax s) with
  | Lp.Simplex.Optimal _ -> ()
  | _ -> Alcotest.fail "relaxation should be optimal");
  Alcotest.(check int) "one cold start" 1
    (Svutil.Metrics.counter_value ms "simplex.cold_starts")

let test_ilp_cover () =
  (* Triangle vertex cover: min x1+x2+x3, every edge covered -> 2. *)
  let s =
    build
      ~vars:[ ivar ~ub:Q.one "x1"; ivar ~ub:Q.one "x2"; ivar ~ub:Q.one "x3" ]
      ~constraints:
        [
          ([ (0, Q.one); (1, Q.one) ], P.Ge, Q.one);
          ([ (1, Q.one); (2, Q.one) ], P.Ge, Q.one);
          ([ (0, Q.one); (2, Q.one) ], P.Ge, Q.one);
        ]
      ~objective:[ (0, Q.one); (1, Q.one); (2, Q.one) ]
  in
  (* The LP relaxation has value 3/2 (all halves); the ILP must reach 2. *)
  (match Lp.Simplex.Exact.solve s with
  | Lp.Simplex.Optimal { objective; _ } -> check_q "lp relaxation" (Q.of_ints 3 2) objective
  | _ -> Alcotest.fail "lp should be optimal");
  match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Optimal { objective; _ } -> check_q "ilp objective" Q.two objective
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_new_bound_pattern () =
  (* x has no upper bound, so branching on it gives a child one: that
     node reuses the root's warm state, with its one float layout,
     instead of falling back to exact. *)
  let s =
    build
      ~vars:[ ivar "x"; ivar ~ub:(Q.of_int 5) "y" ]
      ~constraints:[ ([ (0, Q.two); (1, Q.two) ], P.Ge, Q.of_int 3) ]
      ~objective:[ (0, Q.one); (1, Q.two) ]
  in
  (match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Optimal { objective; _ } -> check_q "exact optimum" Q.two objective
  | _ -> Alcotest.fail "exact: expected optimal");
  let m = Svutil.Metrics.create () in
  let result, stats = Lp.Ilp.Hybrid.solve_with_stats ~metrics:m s in
  (match result with
  | Lp.Ilp.Optimal { objective; _ } -> check_q "hybrid optimum" Q.two objective
  | _ -> Alcotest.fail "hybrid: expected optimal");
  Alcotest.(check int) "nodes" 3 stats.Lp.Ilp.nodes;
  Alcotest.(check (option int)) "one layout" (Some 1)
    (Option.map fst (Svutil.Metrics.span_stats m "lp/sform"));
  Alcotest.(check int) "no fallback" 0 (Svutil.Metrics.counter_value m "certify.fallbacks")

let test_ilp_infeasible_root_once () =
  (* x + y >= 2 and x + y <= 3/2: the root LP is infeasible, and the
     root solve that says so is the only one. *)
  let s =
    build
      ~vars:[ ivar ~ub:(Q.of_int 5) "x"; ivar ~ub:(Q.of_int 5) "y" ]
      ~constraints:
        [
          ([ (0, Q.one); (1, Q.one) ], P.Ge, Q.two);
          ([ (0, Q.one); (1, Q.one) ], P.Le, Q.of_ints 3 2);
          ([ (0, Q.one); (1, Q.minus_one) ], P.Le, Q.of_int 4);
        ]
      ~objective:[ (0, Q.one); (1, Q.one) ]
  in
  let m = Svutil.Metrics.create () in
  let result, stats = Lp.Ilp.Hybrid.solve_with_stats ~metrics:m s in
  (match result with
  | Lp.Ilp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  Alcotest.(check int) "nodes" 1 stats.Lp.Ilp.nodes;
  List.iter
    (fun path ->
      Alcotest.(check (option int)) path (Some 1)
        (Option.map fst (Svutil.Metrics.span_stats m path)))
    [ "lp/sform"; "lp/float"; "lp/certify" ]

let test_ilp_lp_feasible_ip_infeasible () =
  (* 2x = 1 with x in {0,1}. *)
  let s =
    build
      ~vars:[ ivar ~ub:Q.one "x" ]
      ~constraints:[ ([ (0, Q.two) ], P.Eq, Q.one) ]
      ~objective:[ (0, Q.one) ]
  in
  match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_ilp_mixed () =
  (* Mixed integer: min y - x st y integer, y >= x, x pinned to 5/2.
     The LP relaxation picks y = 5/2; integrality forces y = 3 -> 1/2. *)
  let s =
    let p = P.create () in
    let x = P.add_var ~lb:(Q.of_ints 5 2) ~ub:(Q.of_ints 5 2) p in
    let y = P.add_var ~integer:true p in
    P.add_row p [ (x, Q.minus_one); (y, Q.one) ] P.Ge Q.zero;
    set_objective p [ (y, Q.one); (x, Q.minus_one) ];
    P.snapshot p
  in
  match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Optimal { objective; values } ->
      check_q "objective" (Q.of_ints 1 2) objective;
      check_q "y integral" (Q.of_int 3) values.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_row_normalization () =
  (* Rows are appended in the layout's order: ascending variables, zero
     coefficients dropped; anything else is refused. *)
  let builder () =
    let p = P.create () in
    (p, Array.init 6 (fun _ -> P.add_var p))
  in
  let p, x = builder () in
  P.add_row p [ (x.(0), Q.two); (x.(1), Q.zero); (x.(3), Q.one) ] P.Le Q.one;
  P.add_row p [ (x.(5), Q.zero) ] P.Ge Q.zero;
  P.set_cost p x.(1) (Q.of_int 3);
  let s = P.snapshot p in
  let terms = Alcotest.(list (pair int q)) in
  Alcotest.check terms "zero coefficient dropped" [ (0, Q.two); (3, Q.one) ] (row_terms s 0);
  Alcotest.check terms "all-zero row is empty" [] (row_terms s 1);
  let point = Array.init 6 (fun v -> Q.of_int (v + 1)) in
  check_q "row value" (Q.of_int 6) (P.row_value s 0 point);
  check_q "objective value" (Q.of_int 6) (P.obj_value s point);
  Alcotest.(check string) "default names" "x5" (P.var_name s 5);
  let refused add =
    match add () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "one snapshot per builder" true (refused (fun () -> P.add_var p));
  List.iter
    (fun (what, row) ->
      let p, x = builder () in
      Alcotest.(check bool) what true
        (refused (fun () ->
             P.add_row p (List.map (fun (v, c) -> (x.(v), c)) row) P.Eq Q.zero)))
    [
      ("descending variables refused", [ (4, Q.one); (2, Q.one) ]);
      ("a repeated variable refused", [ (2, Q.one); (2, Q.one) ]);
    ];
  Alcotest.(check bool) "terms name declared variables" true
    (refused (fun () -> P.add_term (P.create ()) 0 Q.one))

let test_problem_pp_smoke () =
  let s = simplex_cases |> List.hd |> fun (_, snap, _) -> snap in
  let rendered = Format.asprintf "%a" P.pp s in
  Alcotest.(check bool) "mentions minimize" true
    (String.length rendered > 0 && String.sub rendered 0 8 = "minimize")

let test_ilp_node_limit () =
  (* A 0/1 program with a tiny node budget: solver must not claim
     optimality. *)
  (* An odd cycle: the LP relaxation is uniquely all-halves, so the root
     node cannot already be integral. *)
  let s =
    build
      ~vars:(List.init 5 (fun i -> ivar ~ub:Q.one (Printf.sprintf "x%d" i)))
      ~constraints:
        (List.init 5 (fun i ->
             (List.sort compare [ (i, Q.one); ((i + 1) mod 5, Q.one) ], P.Ge, Q.one)))
      ~objective:(List.init 5 (fun i -> (i, Q.one)))
  in
  match Lp.Ilp.Exact.solve ~node_limit:1 s with
  | Lp.Ilp.Optimal _ -> Alcotest.fail "cannot be proven optimal in one node"
  | Lp.Ilp.Feasible _ | Lp.Ilp.Unknown -> ()
  | Lp.Ilp.Infeasible | Lp.Ilp.Unbounded -> Alcotest.fail "feasible and bounded"

let test_ilp_deadline () =
  (* Same odd-cycle program with an already-expired deadline: the solver
     must return immediately, flag the hit, and never claim optimality. *)
  let s =
    build
      ~vars:(List.init 5 (fun i -> ivar ~ub:Q.one (Printf.sprintf "x%d" i)))
      ~constraints:
        (List.init 5 (fun i ->
             (List.sort compare [ (i, Q.one); ((i + 1) mod 5, Q.one) ], P.Ge, Q.one)))
      ~objective:(List.init 5 (fun i -> (i, Q.one)))
  in
  let deadline = Svutil.Deadline.after_ms 0. in
  (match Lp.Ilp.Exact.solve_with_stats ~deadline s with
  | Lp.Ilp.Optimal _, _ -> Alcotest.fail "cannot prove optimality with no budget"
  | (Lp.Ilp.Feasible _ | Lp.Ilp.Unknown), stats ->
      Alcotest.(check bool) "deadline_hit" true stats.Lp.Ilp.deadline_hit
  | (Lp.Ilp.Infeasible | Lp.Ilp.Unbounded), _ ->
      Alcotest.fail "feasible and bounded");
  (* And with no deadline the same program is solved to optimality. *)
  match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Optimal { objective; _ } -> check_q "optimum" (Q.of_int 3) objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_deadline_raises () =
  let s =
    build
      ~vars:[ cvar "x"; cvar "y" ]
      ~constraints:
        [
          ([ (0, Q.one); (1, Q.two) ], P.Ge, Q.of_int 4);
          ([ (0, Q.of_int 3); (1, Q.one) ], P.Ge, Q.of_int 6);
        ]
      ~objective:[ (0, Q.two); (1, Q.of_int 3) ]
  in
  Alcotest.check_raises "expired deadline" Svutil.Deadline.Expired (fun () ->
      ignore (Lp.Simplex.Exact.solve ~deadline:(Svutil.Deadline.after_ms 0.) s))

let test_exact_zero_tolerance () =
  (* Regression: the historic solver snapped near-integral values with a
     1e-6 tolerance even under exact arithmetic. Maximizing an integer x
     with ub = 1 - 1e-7 has true optimum x = 0; snapping x to 1 reports
     an objective of -1 at an infeasible point. The reference solver
     keeps the bug (it is the before/after oracle); the exact solver
     must not. *)
  let s =
    build
      ~vars:[ ivar ~ub:(Q.sub Q.one (Q.of_ints 1 10_000_000)) "x" ]
      ~constraints:[] ~objective:[ (0, Q.minus_one) ]
  in
  (match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Optimal { objective; values } ->
      check_q "exact optimum" Q.zero objective;
      check_q "exact point" Q.zero values.(0)
  | _ -> Alcotest.fail "expected optimal");
  match Lp.Ilp.Exact.solve_reference s with
  | Lp.Ilp.Optimal { objective; _ } ->
      check_q "reference keeps the historic snapping bug" Q.minus_one objective
  | _ -> Alcotest.fail "expected optimal"

let test_presolve_empty_rows () =
  (* Regression: term-less rows have no variable for the change-tracking
     pass to re-examine them through; they must still be checked. *)
  let infeasible =
    build ~vars:[ cvar ~ub:Q.one "x" ]
      ~constraints:[ ([], P.Le, Q.minus_one) ]
      ~objective:[ (0, Q.one) ]
  in
  (match Lp.Presolve.run infeasible with
  | Lp.Presolve.Infeasible -> ()
  | _ -> Alcotest.fail "0 <= -1 must be infeasible");
  let redundant =
    build
      ~vars:[ ivar ~ub:Q.one "x" ]
      ~constraints:[ ([], P.Le, Q.one); ([ (0, Q.one) ], P.Ge, Q.one) ]
      ~objective:[ (0, Q.one) ]
  in
  match Lp.Presolve.run redundant with
  | Lp.Presolve.Solved { values } -> check_q "x pinned to 1" Q.one values.(0)
  | _ -> Alcotest.fail "expected solved outright"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

(* Random bounded LPs that are always feasible (all-Le constraints with
   non-negative right-hand sides keep the origin feasible). *)
let gen_bounded_lp =
  QCheck2.Gen.(
    let* nv = int_range 1 4 in
    let* nc = int_range 1 4 in
    let* rows =
      list_size (return nc)
        (pair (list_size (return nv) (int_range (-2) 3)) (int_range 0 8))
    in
    let* obj = list_size (return nv) (int_range (-4) 4) in
    let p = P.create () in
    for _ = 1 to nv do
      ignore (P.add_var ~ub:(Q.of_int 10) p)
    done;
    List.iter
      (fun (coeffs, rhs) ->
        P.add_row p (List.mapi (fun i c -> (i, Q.of_int c)) coeffs) P.Le (Q.of_int rhs))
      rows;
    set_objective p (List.mapi (fun i c -> (i, Q.of_int c)) obj);
    return (P.snapshot p))

(* Random general-form LPs: Le/Ge/Eq rows, negative right-hand sides
   and optional upper bounds, so infeasible and unbounded instances
   appear alongside optimal ones. Used differentially: Hybrid must
   reproduce Exact's answer bit-for-bit on every shape. *)
let gen_general_lp =
  QCheck2.Gen.(
    let* nv = int_range 1 4 in
    let* nc = int_range 1 4 in
    let* ubs = list_size (return nv) (option (int_range 0 6)) in
    let* rows =
      list_size (return nc)
        (triple
           (list_size (return nv) (int_range (-3) 3))
           (int_range 0 2)
           (int_range (-5) 8))
    in
    let* obj = list_size (return nv) (int_range (-4) 4) in
    let p = P.create () in
    List.iter (fun ub -> ignore (P.add_var ?ub:(Option.map Q.of_int ub) p)) ubs;
    List.iter
      (fun (coeffs, cmp, rhs) ->
        let cmp = match cmp with 0 -> P.Le | 1 -> P.Ge | _ -> P.Eq in
        P.add_row p (List.mapi (fun i c -> (i, Q.of_int c)) coeffs) cmp (Q.of_int rhs))
      rows;
    set_objective p (List.mapi (fun i c -> (i, Q.of_int c)) obj);
    return (P.snapshot p))

(* Random covering programs in [Core.Set_lp]'s shape: every row [Ge],
   coefficients 0/±1, right-hand sides 0–2, non-negative costs and
   [0, 1] boxes.  A row asking for more than its positive terms can
   give makes some of them infeasible.  The all-logical basis is dual
   feasible on all of them, so the float pass never stalls. *)
let gen_covering_lp =
  QCheck2.Gen.(
    let* nv = int_range 1 5 in
    let* nc = int_range 1 5 in
    let* rows =
      list_size (return nc) (pair (list_size (return nv) (int_range (-1) 1)) (int_range 0 2))
    in
    let* obj = list_size (return nv) (int_range 0 5) in
    let p = P.create () in
    for _ = 1 to nv do
      ignore (P.add_var ~ub:Q.one p)
    done;
    List.iter
      (fun (coeffs, rhs) ->
        P.add_row p (List.mapi (fun i c -> (i, Q.of_int c)) coeffs) P.Ge (Q.of_int rhs))
      rows;
    set_objective p (List.mapi (fun i c -> (i, Q.of_int c)) obj);
    return (P.snapshot p))

let hybrid_agrees s =
  match (Lp.Simplex.Exact.solve s, Lp.Simplex.Hybrid.solve s) with
  | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
      Q.equal a.objective b.objective && feasible s b.values
  | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> true
  | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
  | _ -> false

(* Deterministic per-instance bound changes for the warm-path
   differential: tighten, relax, cross and drop the first variable's
   bounds and compare every reoptimization against a cold exact
   solve. *)
let hybrid_warm_agrees s =
  let s = P.all_integer s in
  match Lp.Simplex.Hybrid.warm_create s with
  | _, None -> false (* the hybrid solver always keeps a warm state *)
  | root, Some w ->
      let check_bounds lb ub =
        let want = Lp.Simplex.Exact.solve (P.with_bounds s ~lb ~ub) in
        match (Lp.Simplex.Hybrid.warm_solve w ~lb ~ub, want) with
        | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b -> Q.equal a.objective b.objective
        | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> true
        | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
        | _ -> false
      in
      let root_ok =
        match (root, Lp.Simplex.Exact.solve s) with
        | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b -> Q.equal a.objective b.objective
        | _ -> false
      in
      let with_first f =
        let lb = Array.copy s.P.lb and ub = Array.copy s.P.ub in
        f lb ub;
        check_bounds lb ub
      in
      root_ok
      && with_first (fun _ ub -> ub.(0) <- Some Q.zero)
      && with_first (fun lb _ -> lb.(0) <- Q.of_int 5)
      && with_first (fun lb ub ->
             lb.(0) <- Q.of_int 4;
             ub.(0) <- Some Q.two)
      && with_first (fun _ ub -> ub.(0) <- None)
      && check_bounds s.P.lb s.P.ub

(* Whatever Certify accepts from the float pass is the exact solver's
   verdict: an accepted optimum is a feasible point at the exact
   optimal value, and certified infeasibility is infeasibility. *)
let certified_matches_exact s =
  match (Lp.Certify.check s (float_answer s), Lp.Simplex.Exact.solve s) with
  | Lp.Certify.Cert_optimal a, Lp.Simplex.Optimal b ->
      Q.equal a.objective b.objective && feasible s a.values
  | Lp.Certify.Cert_infeasible, Lp.Simplex.Infeasible | Lp.Certify.Cert_fail, _ -> true
  | _ -> false

(* On a covering program the float answer always certifies, with the
   exact solver's verdict: a dual or Farkas row handed over with a
   [Ge] row's sign wrong fails here, where [certified_matches_exact]
   would accept the fallback. *)
let covering_certifies s =
  match (Lp.Certify.check s (float_answer s), Lp.Simplex.Exact.solve s) with
  | Lp.Certify.Cert_optimal a, Lp.Simplex.Optimal b ->
      Q.equal a.objective b.objective && feasible s a.values
  | Lp.Certify.Cert_infeasible, Lp.Simplex.Infeasible -> true
  | _ -> false

let hybrid_props =
  [
    prop "hybrid equals exact on bounded LPs" gen_bounded_lp hybrid_agrees;
    prop "hybrid equals exact on general LPs" gen_general_lp hybrid_agrees;
    prop "hybrid warm path equals exact cold solves" gen_bounded_lp
      hybrid_warm_agrees;
    prop "hybrid branch and bound agrees with the reference solver"
      gen_bounded_lp (fun s ->
        let s' = P.all_integer s in
        match (Lp.Ilp.Hybrid.solve s', Lp.Ilp.Exact.solve_reference s') with
        | Lp.Ilp.Optimal a, Lp.Ilp.Optimal b -> Q.equal a.objective b.objective
        | Lp.Ilp.Infeasible, Lp.Ilp.Infeasible -> true
        | Lp.Ilp.Unbounded, Lp.Ilp.Unbounded -> true
        | _ -> false);
    prop "hybrid branch and bound agrees on general integer programs"
      gen_general_lp (fun s ->
        (* Clamp to finite boxes so enumeration-style search terminates;
           keep the Ge/Eq rows and negative right-hand sides. *)
        let ub =
          Array.map
            (function Some u -> Some u | None -> Some (Q.of_int 6))
            s.P.ub
        in
        let s' = P.all_integer (P.with_bounds s ~lb:s.P.lb ~ub) in
        match (Lp.Ilp.Hybrid.solve s', Lp.Ilp.Exact.solve_reference s') with
        | Lp.Ilp.Optimal a, Lp.Ilp.Optimal b -> Q.equal a.objective b.objective
        | Lp.Ilp.Infeasible, Lp.Ilp.Infeasible -> true
        | Lp.Ilp.Unbounded, Lp.Ilp.Unbounded -> true
        | _ -> false);
    prop "certificates match Simplex.Exact" gen_general_lp
      certified_matches_exact;
    prop "covering programs always certify" gen_covering_lp covering_certifies;
  ]

let props =
  [
    prop "exact solution is feasible" gen_bounded_lp (fun s ->
        match Lp.Simplex.Exact.solve s with
        | Lp.Simplex.Optimal { values; _ } -> feasible s values
        | _ -> false);
    prop "lp relaxation bounds the ilp" gen_bounded_lp (fun s ->
        (* Mark all variables integral; LP optimum must lower-bound it. *)
        let s' = P.all_integer s in
        match (Lp.Simplex.Exact.solve s, Lp.Ilp.Exact.solve s') with
        | Lp.Simplex.Optimal a, Lp.Ilp.Optimal b ->
            Q.leq a.objective b.objective
        | _ -> false);
    prop "optimum invariant under constraint permutation" gen_bounded_lp (fun s ->
        let reversed =
          let p = P.create () in
          Array.iter (fun ub -> ignore (P.add_var ?ub p)) s.P.ub;
          for r = s.P.m - 1 downto 0 do
            P.add_row p (row_terms s r) s.P.cmp.(r) s.P.rhs.(r)
          done;
          Array.iteri (P.set_cost p) s.P.obj;
          P.snapshot p
        in
        match (Lp.Simplex.Exact.solve s, Lp.Simplex.Exact.solve reversed) with
        | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b -> Q.equal a.objective b.objective
        | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> true
        | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
        | _ -> false);
    prop "objective scaling scales the optimum" gen_bounded_lp (fun s ->
        let scaled =
          let p = P.create () in
          Array.iter (fun ub -> ignore (P.add_var ?ub p)) s.P.ub;
          for r = 0 to s.P.m - 1 do
            P.add_row p (row_terms s r) s.P.cmp.(r) s.P.rhs.(r)
          done;
          Array.iteri (fun v c -> P.set_cost p v (Q.mul (Q.of_int 3) c)) s.P.obj;
          P.snapshot p
        in
        match (Lp.Simplex.Exact.solve s, Lp.Simplex.Exact.solve scaled) with
        | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
            Q.equal (Q.mul (Q.of_int 3) a.objective) b.objective
        | _ -> false);
    prop "presolve never changes the lp optimum" gen_bounded_lp (fun s ->
        match
          (Lp.Simplex.Exact.solve s, Lp.Presolve.solve_lp (module Lp.Simplex.Exact) s)
        with
        | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b -> Q.equal a.objective b.objective
        | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> true
        | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
        | _ -> false);
    prop "overhauled ilp agrees with the reference solver" gen_bounded_lp (fun s ->
        (* The pre-overhaul depth-first solver is kept verbatim as
           [solve_reference]; presolve, warm starts, best-first search
           and seeding must change time, never answers. *)
        let s' = P.all_integer s in
        match (Lp.Ilp.Exact.solve s', Lp.Ilp.Exact.solve_reference s') with
        | Lp.Ilp.Optimal a, Lp.Ilp.Optimal b -> Q.equal a.objective b.objective
        | Lp.Ilp.Infeasible, Lp.Ilp.Infeasible -> true
        | Lp.Ilp.Unbounded, Lp.Ilp.Unbounded -> true
        | _ -> false);
    prop "ilp matches brute force on binary programs" gen_bounded_lp (fun s ->
        (* Restrict to 0/1 variables and check against enumeration. *)
        let n = s.P.n in
        let ub = Array.map (fun _ -> Some Q.one) s.P.ub in
        let s' = P.all_integer (P.with_bounds s ~lb:s.P.lb ~ub) in
        let best = ref None in
        for mask = 0 to (1 lsl n) - 1 do
          let values =
            Array.init n (fun i -> if mask land (1 lsl i) <> 0 then Q.one else Q.zero)
          in
          if feasible s' values then begin
            let obj = P.obj_value s' values in
            match !best with
            | Some b when Q.leq b obj -> ()
            | _ -> best := Some obj
          end
        done;
        match (Lp.Ilp.Exact.solve s', !best) with
        | Lp.Ilp.Optimal { objective; _ }, Some want -> Q.equal want objective
        | Lp.Ilp.Infeasible, None -> true
        | _ -> false);
    prop "metrics node count always equals stats" gen_bounded_lp (fun s ->
        let s' = P.all_integer s in
        let m = Svutil.Metrics.create () in
        let _, stats = Lp.Ilp.Exact.solve_with_stats ~metrics:m s' in
        Svutil.Metrics.counter_value m "ilp.nodes" = stats.Lp.Ilp.nodes);
  ]

let () =
  Alcotest.run "lp"
    [
      ("simplex exact", simplex_tests (module Lp.Simplex.Exact));
      ( "simplex hybrid",
        simplex_tests (module Lp.Simplex.Hybrid)
        @ [
            Alcotest.test_case "deadline raises" `Quick (fun () ->
                let s = (fun (_, snap, _) -> snap) (List.nth simplex_cases 1) in
                Alcotest.check_raises "expired deadline" Svutil.Deadline.Expired
                  (fun () ->
                    ignore
                      (Lp.Simplex.Hybrid.solve
                         ~deadline:(Svutil.Deadline.after_ms 0.) s)));
          ] );
      ("certify", certify_tests);
      ( "ilp",
        [
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "metrics consistency" `Quick test_ilp_metrics_consistency;
          Alcotest.test_case "vertex cover triangle" `Quick test_ilp_cover;
          Alcotest.test_case "lp feasible, ip infeasible" `Quick test_ilp_lp_feasible_ip_infeasible;
          Alcotest.test_case "new bound pattern stays hybrid" `Quick test_ilp_new_bound_pattern;
          Alcotest.test_case "mixed integer" `Quick test_ilp_mixed;
          Alcotest.test_case "node limit" `Quick test_ilp_node_limit;
          Alcotest.test_case "deadline" `Quick test_ilp_deadline;
          Alcotest.test_case "simplex deadline raises" `Quick test_simplex_deadline_raises;
          Alcotest.test_case "exact zero tolerance" `Quick test_exact_zero_tolerance;
          Alcotest.test_case "presolve empty rows" `Quick test_presolve_empty_rows;
          Alcotest.test_case "infeasible root solved once" `Quick test_ilp_infeasible_root_once;
        ] );
      ( "modeling",
        [
          Alcotest.test_case "problem pp" `Quick test_problem_pp_smoke;
          Alcotest.test_case "row normalization" `Quick test_row_normalization;
        ] );
      ("properties", props);
      ("hybrid properties", hybrid_props);
    ]
