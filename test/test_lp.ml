module Q = Rat
module P = Lp.Problem
module L = Lp.Linexpr

let q = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check q

let le = L.of_list

(* A tiny DSL for building snapshots in tests. [vars] is a list of
   (name, ub option, integer); constraints use variable indexes. *)
let build ~vars ~constraints ~objective =
  let p = P.create () in
  List.iter (fun (name, ub, integer) -> ignore (P.add_var ?ub ~integer p name)) vars;
  List.iter (fun (expr, cmp, rhs) -> P.add_constraint p (le expr) cmp rhs) constraints;
  P.set_objective p (le objective);
  P.snapshot p

let cvar ?ub name = (name, ub, false)
let ivar ?ub name = (name, ub, true)

let feasible (s : P.snapshot) values =
  Array.for_all2
    (fun lb v -> Q.leq lb v)
    s.P.lb values
  && Array.for_all2
       (fun ub v -> match ub with None -> true | Some u -> Q.leq v u)
       s.P.ub values
  && Array.for_all
       (fun (expr, cmp, rhs) ->
         let v = L.eval expr (fun i -> values.(i)) in
         match cmp with
         | P.Le -> Q.leq v rhs
         | P.Ge -> Q.geq v rhs
         | P.Eq -> Q.equal v rhs)
       s.P.constraints

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
       let x = P.add_var ~lb:(Q.of_int (-5)) p "x" in
       P.add_constraint p (le [ (x, Q.one) ]) P.Ge (Q.of_int (-2));
       P.set_objective p (le [ (x, Q.one) ]);
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
(* Certify unit tests (hand-built bases)                               *)
(* ------------------------------------------------------------------ *)

(* Drive Certify.check directly on chosen bases of tiny problems, so
   each of the accept / repair-primal / repair-dual / fallback branches
   is pinned by a test that does not depend on what Fsimplex happens to
   find. *)
let root_rhs sf snap =
  match Lp.Sform.rhs sf ~lb:snap.P.lb ~ub:snap.P.ub with
  | Lp.Sform.Rhs rhs -> rhs
  | _ -> Alcotest.fail "root bounds must produce a rhs"

let certify_on snap basis =
  let sf = Lp.Sform.make snap in
  Lp.Certify.check sf ~rhs:(root_rhs sf snap) ~lb:snap.P.lb ~basis

let certify_snap_le1 =
  (* min -x-y st x+y <= 1: optimum -1 at a vertex with one var basic. *)
  build
    ~vars:[ cvar "x"; cvar "y" ]
    ~constraints:[ ([ (0, Q.one); (1, Q.one) ], P.Le, Q.one) ]
    ~objective:[ (0, Q.minus_one); (1, Q.minus_one) ]

let test_certify_accept () =
  (* Basis {x}: primal and dual feasible, accepted without pivots. *)
  match certify_on certify_snap_le1 [| 0 |] with
  | Lp.Certify.Cert_optimal { objective; repaired; _ } ->
      check_q "objective" Q.minus_one objective;
      Alcotest.(check bool) "accepted, not repaired" false repaired
  | _ -> Alcotest.fail "expected Cert_optimal"

let test_certify_repair_primal () =
  (* Slack basis: primal feasible (slack = 1) but dual infeasible
     (reduced cost of x is -1), so a primal cleanup must run. *)
  let slack = 2 (* columns: x, y, slack of the single row *) in
  match certify_on certify_snap_le1 [| slack |] with
  | Lp.Certify.Cert_optimal { objective; repaired; _ } ->
      check_q "objective" Q.minus_one objective;
      Alcotest.(check bool) "repaired" true repaired
  | _ -> Alcotest.fail "expected repaired Cert_optimal"

let test_certify_repair_dual () =
  (* min x st x >= 2 with the slack basic: B = [-1] gives a negative
     basic value, while the reduced costs are all non-negative — the
     dual cleanup pivots x in and lands on the optimum 2. *)
  let s =
    build
      ~vars:[ cvar "x" ]
      ~constraints:[ ([ (0, Q.one) ], P.Ge, Q.two) ]
      ~objective:[ (0, Q.one) ]
  in
  match certify_on s [| 1 |] with
  | Lp.Certify.Cert_optimal { objective; repaired; _ } ->
      check_q "objective" Q.two objective;
      Alcotest.(check bool) "repaired" true repaired
  | _ -> Alcotest.fail "expected repaired Cert_optimal"

let test_certify_fallback_singular () =
  (* Two parallel rows and the basis {x, y}: B = [[1,1],[2,2]] is
     singular, so certification must fail (and the hybrid solver would
     fall back to the exact two-phase path). *)
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
  match certify_on s [| 0; 1 |] with
  | Lp.Certify.Cert_fail -> ()
  | _ -> Alcotest.fail "expected Cert_fail on a singular basis"

let test_exact_after_float_pivots () =
  (* Hybrid's float pass pivots, yet the answer is the exact rational
     optimum, not a float approximation of it. *)
  let s = (fun (_, snap, _) -> snap) (List.nth simplex_cases 1) in
  let mh = Svutil.Metrics.create () in
  (match Lp.Simplex.Hybrid.solve ~metrics:mh s with
  | Lp.Simplex.Optimal { objective; _ } -> check_q "hybrid optimum" (Q.of_ints 34 5) objective
  | _ -> Alcotest.fail "hybrid should solve");
  Alcotest.(check bool) "hybrid pivoted in floats" true
    (Svutil.Metrics.counter_value mh "simplex.hybrid.float_pivots" > 0);
  (* One float pass and one certification, which accepts the float
     point without an exact factorization. *)
  List.iter
    (fun path ->
      Alcotest.(check (option int)) path (Some 1)
        (Option.map fst (Svutil.Metrics.span_stats mh path)))
    [ "lp/float"; "lp/certify" ];
  Alcotest.(check int) "no factorization" 0
    (Svutil.Metrics.counter_value mh "certify.factorizations");
  (* Negative costs on columns without an upper bound leave the dual
     pass no dual-feasible start: the exact solver answers, once. *)
  let s = (fun (_, snap, _) -> snap) (List.hd simplex_cases) in
  let mf = Svutil.Metrics.create () in
  (match Lp.Simplex.Hybrid.solve ~metrics:mf s with
  | Lp.Simplex.Optimal { objective; _ } -> check_q "fallback optimum" Q.minus_one objective
  | _ -> Alcotest.fail "hybrid should solve");
  Alcotest.(check int) "one fallback" 1
    (Svutil.Metrics.counter_value mf "certify.fallbacks")

let test_warm_fixed_columns () =
  (* Branch-and-bound nodes fix columns (lb = ub), whose reduced costs
     may carry either sign. Every node must come back from the warm
     dual pass as an explicit pair that checks as is: no factorization,
     no repair, no fallback, and the exact solver's answers. *)
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
  let w =
    match Lp.Simplex.Hybrid.warm_create ~metrics:m s with
    | Some w -> w
    | None -> Alcotest.fail "the root is feasible and bounded"
  in
  let same name snap got =
    match (got, Lp.Simplex.Exact.solve snap) with
    | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
        check_q name b.objective a.objective;
        Alcotest.(check bool) (name ^ " point feasible") true (feasible snap a.values)
    | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> ()
    | _ -> Alcotest.failf "%s: hybrid and exact disagree" name
  in
  same "root" s (Lp.Simplex.Hybrid.warm_root w);
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
    (fun (c, want) ->
      Alcotest.(check int) c want (Svutil.Metrics.counter_value m c))
    [
      ("certify.accepts", 5);
      ("certify.factorizations", 0);
      ("certify.fallbacks", 0);
    ]

(* The float pass's optimal basis and point for a snapshot's root. *)
let float_optimum snap =
  let sf = Lp.Sform.make snap in
  let rhs = root_rhs sf snap in
  match Lp.Fsimplex.solve (Lp.Fsimplex.create sf) ~rhs with
  | Lp.Fsimplex.Optimal_basis { basis; point } -> Some (sf, rhs, basis, point)
  | _ -> None

(* Certify [basis] with and without [point] on live registries. *)
let certify_both ?point snap (sf, rhs, basis) =
  let run point =
    let m = Svutil.Metrics.create () in
    (Lp.Certify.check ~metrics:m ?point sf ~rhs ~lb:snap.P.lb ~basis, m)
  in
  (run point, run None)

let same_outcome a b =
  match (a, b) with
  | ( Lp.Certify.Cert_optimal { objective = o1; values = v1; repaired = r1 },
      Lp.Certify.Cert_optimal { objective = o2; values = v2; repaired = r2 } ) ->
      Q.equal o1 o2 && Array.for_all2 Q.equal v1 v2 && r1 = r2
  | Lp.Certify.Cert_infeasible, Lp.Certify.Cert_infeasible
  | Lp.Certify.Cert_unbounded, Lp.Certify.Cert_unbounded
  | Lp.Certify.Cert_fail, Lp.Certify.Cert_fail ->
      true
  | _ -> false

let factorizations m = Svutil.Metrics.counter_value m "certify.factorizations"

let test_certify_beyond_recovery_bound () =
  (* min x st 1048583 x >= 1: the optimum 1/1048583 has a denominator
     above the 2^20 recovery bound, so the float point cannot be read
     back and the basis is certified through the exact factorization. *)
  let big = 1048583 in
  let s =
    build
      ~vars:[ cvar "x" ]
      ~constraints:[ ([ (0, Q.of_int big) ], P.Ge, Q.one) ]
      ~objective:[ (0, Q.one) ]
  in
  match float_optimum s with
  | None -> Alcotest.fail "the float pass should find the optimal basis"
  | Some (sf, rhs, basis, point) -> (
      let (got, m), _ = certify_both ~point s (sf, rhs, basis) in
      Alcotest.(check int) "one factorization" 1 (factorizations m);
      match got with
      | Lp.Certify.Cert_optimal { objective; repaired; _ } ->
          check_q "objective" (Q.of_ints 1 big) objective;
          Alcotest.(check bool) "accepted, not repaired" false repaired
      | _ -> Alcotest.fail "expected Cert_optimal")

let test_certify_perturbed_dual () =
  (* A dual moved by 1/2 still recovers as a rational, so the exact
     check itself must reject the pair; the factorization then gives
     the same outcome as a call without a point. *)
  let s = (fun (_, snap, _) -> snap) (List.nth simplex_cases 1) in
  match float_optimum s with
  | None -> Alcotest.fail "the float pass should find the optimal basis"
  | Some (sf, rhs, basis, point) ->
      let y = Array.copy point.Lp.Fsimplex.y in
      y.(0) <- y.(0) +. 0.5;
      let (bad, m), (plain, _) =
        certify_both ~point:{ point with Lp.Fsimplex.y } s (sf, rhs, basis)
      in
      Alcotest.(check int) "rejected pair falls back to a factorization" 1
        (factorizations m);
      Alcotest.(check bool) "same outcome as without a point" true
        (same_outcome bad plain)

let certify_tests =
  [
    Alcotest.test_case "accept optimal basis" `Quick test_certify_accept;
    Alcotest.test_case "repair primal-feasible basis" `Quick test_certify_repair_primal;
    Alcotest.test_case "repair dual-feasible basis" `Quick test_certify_repair_dual;
    Alcotest.test_case "fail on singular basis" `Quick test_certify_fallback_singular;
    Alcotest.test_case "exact optimum after float pivots" `Quick
      test_exact_after_float_pivots;
    Alcotest.test_case "accept beyond the recovery bound" `Quick
      test_certify_beyond_recovery_bound;
    Alcotest.test_case "perturbed dual is rejected" `Quick
      test_certify_perturbed_dual;
    Alcotest.test_case "warm path across fixed columns" `Quick
      test_warm_fixed_columns;
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
    let x = P.add_var ~lb:(Q.of_ints 5 2) ~ub:(Q.of_ints 5 2) p "x" in
    let y = P.add_var ~integer:true p "y" in
    P.add_constraint p (le [ (y, Q.one); (x, Q.minus_one) ]) P.Ge Q.zero;
    P.set_objective p (le [ (y, Q.one); (x, Q.minus_one) ]);
    P.snapshot p
  in
  match Lp.Ilp.Exact.solve s with
  | Lp.Ilp.Optimal { objective; values } ->
      check_q "objective" (Q.of_ints 1 2) objective;
      check_q "y integral" (Q.of_int 3) values.(1)
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Linexpr                                                             *)
(* ------------------------------------------------------------------ *)

let test_linexpr () =
  let e = L.of_list [ (0, Q.one); (1, Q.two); (0, Q.one) ] in
  check_q "combines repeated vars" Q.two (L.coeff e 0);
  check_q "keeps others" Q.two (L.coeff e 1);
  check_q "missing var is zero" Q.zero (L.coeff e 5);
  Alcotest.(check (list int)) "vars" [ 0; 1 ] (L.vars e);
  let cancelled = L.add e (L.of_list [ (0, Q.of_int (-2)) ]) in
  Alcotest.(check (list int)) "cancellation drops the var" [ 1 ] (L.vars cancelled);
  Alcotest.(check bool) "scale by zero empties" true (L.is_empty (L.scale Q.zero e));
  check_q "eval" (Q.of_int 6) (L.eval e (fun v -> Q.of_int (v + 1)));
  check_q "neg" (Q.of_int (-2)) (L.coeff (L.neg e) 0);
  check_q "sum_of_vars" Q.one (L.coeff (L.sum_of_vars [ 3; 4 ]) 3)

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
        (List.init 5 (fun i -> ([ (i, Q.one); ((i + 1) mod 5, Q.one) ], P.Ge, Q.one)))
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
        (List.init 5 (fun i -> ([ (i, Q.one); ((i + 1) mod 5, Q.one) ], P.Ge, Q.one)))
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
    for i = 0 to nv - 1 do
      ignore (P.add_var ~ub:(Q.of_int 10) p (Printf.sprintf "x%d" i))
    done;
    List.iter
      (fun (coeffs, rhs) ->
        P.add_constraint p
          (le (List.mapi (fun i c -> (i, Q.of_int c)) coeffs))
          P.Le (Q.of_int rhs))
      rows;
    P.set_objective p (le (List.mapi (fun i c -> (i, Q.of_int c)) obj));
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
    List.iteri
      (fun i ub ->
        let ub = Option.map Q.of_int ub in
        ignore (P.add_var ?ub p (Printf.sprintf "x%d" i)))
      ubs;
    List.iter
      (fun (coeffs, cmp, rhs) ->
        let cmp = match cmp with 0 -> P.Le | 1 -> P.Ge | _ -> P.Eq in
        P.add_constraint p
          (le (List.mapi (fun i c -> (i, Q.of_int c)) coeffs))
          cmp (Q.of_int rhs))
      rows;
    P.set_objective p (le (List.mapi (fun i c -> (i, Q.of_int c)) obj));
    return (P.snapshot p))

let hybrid_agrees s =
  match (Lp.Simplex.Exact.solve s, Lp.Simplex.Hybrid.solve s) with
  | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
      Q.equal a.objective b.objective && feasible s b.values
  | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> true
  | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
  | _ -> false

(* Deterministic per-instance bound tightenings for the warm-path
   differential: tighten, relax, and cross the first variable's bounds
   and compare every reoptimization against a cold exact solve. *)
let hybrid_warm_agrees s =
  let s = P.all_integer s in
  match Lp.Simplex.Hybrid.warm_create s with
  | None -> false (* bounded all-integer programs are always warmable *)
  | Some w ->
      let check_bounds lb ub =
        let want = Lp.Simplex.Exact.solve (P.with_bounds s ~lb ~ub) in
        match (Lp.Simplex.Hybrid.warm_solve w ~lb ~ub, want) with
        | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b -> Q.equal a.objective b.objective
        | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> true
        | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
        | _ -> false
      in
      let root_ok =
        match (Lp.Simplex.Hybrid.warm_root w, Lp.Simplex.Exact.solve s) with
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
      && check_bounds s.P.lb s.P.ub

(* Certification with the float pass's point must give exactly the
   outcome of certification through the exact factorization. *)
let certify_point_agrees s =
  match float_optimum s with
  | None -> true
  | Some (sf, rhs, basis, point) ->
      let (a, _), (b, _) = certify_both ~point s (sf, rhs, basis) in
      same_outcome a b

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
    prop "certify with and without the float point agree" gen_general_lp
      certify_point_agrees;
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
          Array.iteri (fun i ub -> ignore (P.add_var ?ub p (Printf.sprintf "x%d" i))) s.P.ub;
          List.iter
            (fun (e, c, r) -> P.add_constraint p e c r)
            (List.rev (Array.to_list s.P.constraints));
          P.set_objective p s.P.objective;
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
          Array.iteri (fun i ub -> ignore (P.add_var ?ub p (Printf.sprintf "x%d" i))) s.P.ub;
          Array.iter (fun (e, c, r) -> P.add_constraint p e c r) s.P.constraints;
          P.set_objective p (L.scale (Q.of_int 3) s.P.objective);
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
    prop "parallel node pool matches sequential search" gen_bounded_lp (fun s ->
        let s' = P.all_integer s in
        match (Lp.Ilp.Exact.solve ~jobs:1 s', Lp.Ilp.Exact.solve ~jobs:3 s') with
        | Lp.Ilp.Optimal a, Lp.Ilp.Optimal b -> Q.equal a.objective b.objective
        | Lp.Ilp.Infeasible, Lp.Ilp.Infeasible -> true
        | Lp.Ilp.Unbounded, Lp.Ilp.Unbounded -> true
        | _ -> false);
    prop "cutoff semantics: above keeps the optimum, at prunes everything"
      gen_bounded_lp (fun s ->
        let s' = P.all_integer s in
        match Lp.Ilp.Exact.solve s' with
        | Lp.Ilp.Optimal { objective; _ } ->
            (match Lp.Ilp.Exact.solve ~cutoff:(Q.add objective Q.one) s' with
            | Lp.Ilp.Optimal { objective = o; _ } -> Q.equal o objective
            | _ -> false)
            && (match Lp.Ilp.Exact.solve ~cutoff:objective s' with
               | Lp.Ilp.Infeasible -> true
               | _ -> false)
        | _ -> true);
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
            let obj = L.eval s'.P.objective (fun v -> values.(v)) in
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
    prop "parallel workers' registries are fully absorbed" gen_bounded_lp
      (fun s ->
        (* With jobs>1 every node solve writes a per-slot registry; the
           absorbed union must still account for every node. *)
        let s' = P.all_integer s in
        let m = Svutil.Metrics.create () in
        let _, stats = Lp.Ilp.Exact.solve_with_stats ~jobs:4 ~metrics:m s' in
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
          Alcotest.test_case "mixed integer" `Quick test_ilp_mixed;
          Alcotest.test_case "node limit" `Quick test_ilp_node_limit;
          Alcotest.test_case "deadline" `Quick test_ilp_deadline;
          Alcotest.test_case "simplex deadline raises" `Quick test_simplex_deadline_raises;
          Alcotest.test_case "exact zero tolerance" `Quick test_exact_zero_tolerance;
          Alcotest.test_case "presolve empty rows" `Quick test_presolve_empty_rows;
        ] );
      ( "modeling",
        [
          Alcotest.test_case "linexpr" `Quick test_linexpr;
          Alcotest.test_case "problem pp" `Quick test_problem_pp_smoke;
        ] );
      ("properties", props);
      ("hybrid properties", hybrid_props);
    ]
