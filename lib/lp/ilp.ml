let src = Logs.Src.create "secure_view.ilp" ~doc:"Branch-and-bound ILP solver"

module Log = (val Logs.src_log src : Logs.LOG)

type result =
  | Optimal of { objective : Rat.t; values : Rat.t array }
  | Feasible of { objective : Rat.t; values : Rat.t array }
  | Infeasible
  | Unbounded
  | Unknown

type stats = {
  nodes : int;
  node_limit : int;
  limit_hit : bool;
  deadline_hit : bool;
  root_bound : Rat.t option;
}

let default_node_limit = 50_000

(* Historic integrality tolerance, kept (only) by [solve_reference]: both
   solvers return exact rationals, so the modern path tests integrality
   exactly and never perturbs an optimum by snapping. *)
let reference_eps = Rat.of_ints 1 1_000_000

let frac_part r = Rat.sub r (Rat.of_bigint (Rat.floor r))

module type S = sig
  val solve :
    ?node_limit:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    result

  val solve_with_stats :
    ?node_limit:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    result * stats

  val solve_reference : ?node_limit:int -> Problem.snapshot -> result
end

module Make (Solver : Simplex.SOLVER) : S = struct
  (* Most fractional integer variable, or [-1] if the point is integral. *)
  let branch_var (p : Problem.snapshot) values =
    let branch = ref (-1) in
    let branch_score = ref Rat.zero in
    Array.iteri
      (fun i v ->
        if p.Problem.integer.(i) && not (Rat.is_integer v) then begin
          let f = frac_part v in
          let score = Rat.min f (Rat.sub Rat.one f) in
          if Rat.gt score !branch_score then begin
            branch := i;
            branch_score := score
          end
        end)
      values;
    !branch

  (* Exact feasibility of a candidate point for the reduced problem. *)
  let feasible_point (p : Problem.snapshot) values =
    let ok = ref true in
    Array.iteri
      (fun i v ->
        if Rat.lt v p.Problem.lb.(i) then ok := false;
        match p.Problem.ub.(i) with
        | Some u when Rat.gt v u -> ok := false
        | _ -> ())
      values;
    let rec rows_ok r =
      r = p.Problem.m
      ||
      let lhs = Problem.row_value p r values and rhs = p.Problem.rhs.(r) in
      (match p.Problem.cmp.(r) with
      | Problem.Le -> Rat.leq lhs rhs
      | Problem.Ge -> Rat.geq lhs rhs
      | Problem.Eq -> Rat.equal lhs rhs)
      && rows_ok (r + 1)
    in
    !ok && rows_ok 0

  (* Open node: a box, keyed by the parent's LP objective. *)
  type node = { bound : Rat.t; seq : int; lb : Rat.t array; ub : Rat.t option array }

  let node_cmp a b =
    let c = Rat.compare a.bound b.bound in
    if c <> 0 then c else compare b.seq a.seq (* newest first among ties *)

  let solve_with_stats ?(node_limit = default_node_limit)
      ?(deadline = Svutil.Deadline.none) ?(metrics = Svutil.Metrics.nop)
      (s : Problem.snapshot) =
    let finished ?root_bound ?(deadline_hit = false) nodes limit_hit =
      (* Single source of truth: the same [nodes] count feeds both the
         stats record and the registry, so the two can never drift. *)
      Svutil.Metrics.count metrics "ilp.nodes" nodes;
      { nodes; node_limit; limit_hit; deadline_hit; root_bound }
    in
    (* A budget that is already spent buys no work at all — not even
       presolve — and no claim of optimality there was no time to
       earn. *)
    if Svutil.Deadline.expired deadline then
      (Unknown, finished ~deadline_hit:true 0 false)
    else
      match Svutil.Metrics.span metrics "lp/presolve" (fun () -> Presolve.run s) with
      | Presolve.Infeasible -> (Infeasible, finished 0 false)
      | Presolve.Solved { values } ->
          Svutil.Metrics.count metrics "ilp.presolve_fixed" s.Problem.n;
          let objective = Problem.obj_value s values in
          (Optimal { objective; values }, finished ~root_bound:objective 0 false)
      | Presolve.Reduced { problem = p; restore } ->
        Svutil.Metrics.count metrics "ilp.presolve_fixed" (s.Problem.n - p.Problem.n);
        (* The root bound lives in the original objective space; fixed
           variables contribute a constant the reduced objective lacks. *)
        let kappa =
          let fixed = restore (Array.make p.Problem.n Rat.zero) in
          Problem.obj_value s fixed
        in
        let nodes = ref 0 in
        let limit_hit = ref false in
        let deadline_hit = ref false in
        let root_bound = ref None in
        let unbounded = ref false in
        let best : (Rat.t * Rat.t array) option ref = ref None in
        let dominated obj =
          match !best with Some (b, _) -> Rat.geq obj b | None -> false
        in
        let offer values =
          let obj = Problem.obj_value p values in
          if not (dominated obj) then begin
            Svutil.Metrics.tick metrics "ilp.incumbents";
            best := Some (obj, values)
          end
        in
        (* Candidate incumbents from the root relaxation: nearest-integer
           and ceiling roundings of the integer variables, admitted only
           when exactly feasible. Covering-style programs (the gadget
           ILPs) usually accept the ceiling one, which gives the
           best-first search a pruning bound from node one. *)
        let seed_incumbent values =
          let clamp i v =
            let v = Rat.max v p.Problem.lb.(i) in
            match p.Problem.ub.(i) with Some u -> Rat.min v u | None -> v
          in
          let candidate round =
            Array.mapi
              (fun i v -> if p.Problem.integer.(i) then clamp i (round v) else v)
              values
          in
          List.iter
            (fun cand -> if feasible_point p cand then offer cand)
            [
              candidate (fun v -> Rat.of_bigint (Rat.floor (Rat.add v (Rat.of_ints 1 2))));
              candidate (fun v -> Rat.of_bigint (Rat.ceil v));
            ]
        in
        (* The root's warm solver state, reoptimized under each later
           node's bounds. [None] when the root was not warmable; nodes
           then take a cold solve. *)
        let warm = ref None in
        let node_solve ~lb ~ub =
          match !warm with
          | Some w -> Solver.warm_solve ~deadline w ~lb ~ub
          | None -> Solver.solve ~deadline ~metrics (Problem.with_bounds p ~lb ~ub)
        in
        let pq = Svutil.Pq.create ~cmp:node_cmp in
        let seq = ref 0 in
        let push_children ~branch:i parent_obj lb ub values =
          if i < 0 then offer values
          else begin
            let fl = Rat.of_bigint (Rat.floor values.(i)) in
            let ub1 = Array.copy ub in
            ub1.(i) <-
              (match ub.(i) with
              | None -> Some fl
              | Some u -> Some (Rat.min u fl));
            incr seq;
            Svutil.Pq.push pq { bound = parent_obj; seq = !seq; lb = Array.copy lb; ub = ub1 };
            let lb2 = Array.copy lb in
            lb2.(i) <- Rat.max lb.(i) (Rat.add fl Rat.one);
            incr seq;
            Svutil.Pq.push pq { bound = parent_obj; seq = !seq; lb = lb2; ub = Array.copy ub }
          end
        in
        (* Root node: [warm_create] solves it once, whatever its
           outcome, and keeps the state later nodes reoptimize from. *)
        incr nodes;
        (match
           (try
              let root, w = Solver.warm_create ~deadline ~metrics p in
              warm := w;
              `Solved root
            with Svutil.Deadline.Expired -> `Timeout)
         with
        | `Timeout -> deadline_hit := true
        | `Solved Simplex.Infeasible -> ()
        | `Solved Simplex.Unbounded -> unbounded := true
        | `Solved (Simplex.Optimal { objective; values }) ->
            root_bound := Some (Rat.add objective kappa);
            (* An integral root point is offered as it stands:
               both roundings would equal it. *)
            let branch = branch_var p values in
            Svutil.Metrics.span metrics "lp/incumbent" (fun () ->
                if branch >= 0 then seed_incumbent values);
            push_children ~branch objective p.Problem.lb p.Problem.ub values);
        (* Best-first loop, one open node at a time. *)
        while
          (not !unbounded) && (not !deadline_hit) && (not !limit_hit)
          && not (Svutil.Pq.is_empty pq)
        do
          (* The queue is ordered by bound: once the top is dominated,
             everything is, and the incumbent is proven optimal. *)
          (match (Svutil.Pq.peek pq, !best) with
          | Some top, Some (b, _) when Rat.geq top.bound b ->
              Svutil.Metrics.count metrics "ilp.pruned_bound" (Svutil.Pq.length pq);
              Svutil.Pq.clear pq
          | _ -> ());
          (* An expired budget or a spent node limit ends the search
             here, with the incumbent it has. *)
          match Svutil.Pq.pop pq with
          | None -> ()
          | Some _ when Svutil.Deadline.expired deadline -> deadline_hit := true
          | Some _ when !nodes >= node_limit -> limit_hit := true
          | Some nd -> (
              incr nodes;
              match node_solve ~lb:nd.lb ~ub:nd.ub with
              | Simplex.Infeasible -> ()
              | Simplex.Unbounded -> unbounded := true
              | Simplex.Optimal { objective; values } ->
                  if not (dominated objective) then
                    push_children ~branch:(branch_var p values) objective nd.lb nd.ub values
                  else Svutil.Metrics.tick metrics "ilp.pruned_bound"
              | exception Svutil.Deadline.Expired -> deadline_hit := true)
        done;
        Log.debug (fun m ->
            m "explored %d nodes (limit %d, %d vars)%s" !nodes node_limit
              s.Problem.n
              (match !best with
              | Some (obj, _) -> " incumbent " ^ Rat.to_string obj
              | None -> ""));
        let stats =
          finished ?root_bound:!root_bound ~deadline_hit:!deadline_hit !nodes
            !limit_hit
        in
        if !unbounded then (Unbounded, stats)
        else
          let restore_result values =
            let full = restore values in
            let objective = Problem.obj_value s full in
            (objective, full)
          in
          let interrupted = !limit_hit || !deadline_hit in
          (match (!best, interrupted) with
          | Some (_, values), false ->
              let objective, values = restore_result values in
              (Optimal { objective; values }, stats)
          | Some (_, values), true ->
              let objective, values = restore_result values in
              (Feasible { objective; values }, stats)
          | None, true -> (Unknown, stats)
          | None, false -> (Infeasible, stats))

  let solve ?node_limit ?deadline ?metrics s =
    fst (solve_with_stats ?node_limit ?deadline ?metrics s)

  (* The pre-overhaul recursive depth-first solver, verbatim: cold LP
     solve per node, fixed 1e-6 snapping tolerance. Kept as the oracle
     for the differential test suite — presolve, warm starts and
     best-first search must change time, never answers. *)
  let solve_reference ?(node_limit = default_node_limit) (s : Problem.snapshot) =
    let is_integral r =
      let f = frac_part r in
      Rat.leq f reference_eps || Rat.geq f (Rat.sub Rat.one reference_eps)
    in
    let snap r = Rat.of_bigint (Rat.floor (Rat.add r (Rat.of_ints 1 2))) in
    let best : (Rat.t * Rat.t array) option ref = ref None in
    let nodes = ref 0 in
    let limit_hit = ref false in
    let unbounded = ref false in
    let rec go lb ub =
      if !unbounded then ()
      else if !nodes >= node_limit then limit_hit := true
      else begin
        incr nodes;
        match Solver.solve (Problem.with_bounds s ~lb ~ub) with
        | Simplex.Infeasible -> ()
        | Simplex.Unbounded -> unbounded := true
        | Simplex.Optimal { objective; values } ->
            let dominated =
              match !best with Some (b, _) -> Rat.geq objective b | None -> false
            in
            if not dominated then begin
              let branch = ref (-1) in
              let branch_score = ref Rat.zero in
              Array.iteri
                (fun i v ->
                  if s.Problem.integer.(i) && not (is_integral v) then begin
                    let f = frac_part v in
                    let score = Rat.min f (Rat.sub Rat.one f) in
                    if Rat.gt score !branch_score then begin
                      branch := i;
                      branch_score := score
                    end
                  end)
                values;
              if !branch < 0 then begin
                let snapped =
                  Array.mapi
                    (fun i v -> if s.Problem.integer.(i) then snap v else v)
                    values
                in
                let obj = Problem.obj_value s snapped in
                match !best with
                | Some (b, _) when Rat.leq b obj -> ()
                | _ -> best := Some (obj, snapped)
              end
              else begin
                let i = !branch in
                let fl = Rat.of_bigint (Rat.floor values.(i)) in
                let ub1 = Array.copy ub in
                ub1.(i) <-
                  (match ub.(i) with
                  | None -> Some fl
                  | Some u -> Some (Rat.min u fl));
                go (Array.copy lb) ub1;
                let lb2 = Array.copy lb in
                lb2.(i) <- Rat.max lb.(i) (Rat.add fl Rat.one);
                go lb2 (Array.copy ub)
              end
            end
      end
    in
    go (Array.copy s.Problem.lb) (Array.copy s.Problem.ub);
    if !unbounded then Unbounded
    else
      match (!best, !limit_hit) with
      | Some (objective, values), false -> Optimal { objective; values }
      | Some (objective, values), true -> Feasible { objective; values }
      | None, true -> Unknown
      | None, false -> Infeasible
end

module Exact = Make (Simplex.Exact)
module Hybrid = Make (Simplex.Hybrid)
