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

module Make (Solver : Simplex.SOLVER) = struct
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
    !ok
    && Array.for_all
         (fun (expr, cmp, rhs) ->
           let lhs = Linexpr.eval expr (fun v -> values.(v)) in
           match cmp with
           | Problem.Le -> Rat.leq lhs rhs
           | Problem.Ge -> Rat.geq lhs rhs
           | Problem.Eq -> Rat.equal lhs rhs)
         p.Problem.constraints

  (* Open node: a box, keyed by the parent's LP objective. *)
  type node = { bound : Rat.t; seq : int; lb : Rat.t array; ub : Rat.t option array }

  let node_cmp a b =
    let c = Rat.compare a.bound b.bound in
    if c <> 0 then c else compare b.seq a.seq (* newest first among ties *)

  let solve_with_stats ?(node_limit = default_node_limit) ?cutoff ?incumbent
      ?(jobs = 1) ?(deadline = Svutil.Deadline.none)
      ?(metrics = Svutil.Metrics.nop) ?(fixings = []) (s : Problem.snapshot) =
    let finished ?root_bound ?(deadline_hit = false) nodes limit_hit =
      (* Single source of truth: the same [nodes] count feeds both the
         stats record and the registry, so the two can never drift. *)
      Svutil.Metrics.count metrics "ilp.nodes" nodes;
      { nodes; node_limit; limit_hit; deadline_hit; root_bound }
    in
    (* A budget that is already spent buys no work at all — not even
       presolve — so callers holding an incumbent keep it and never see
       a claim of optimality they had no time to earn. *)
    if Svutil.Deadline.expired deadline then
      (Unknown, finished ~deadline_hit:true 0 false)
    else
      (* Static fixings are pinned bounds, applied before presolve so
         its fixpoint substitutes the variables out. [n] and the index
         space are unchanged, so the kappa/cutoff/restore bookkeeping
         below is oblivious to them. *)
      let s =
        match fixings with
        | [] -> s
        | fs ->
            Svutil.Metrics.count metrics "ilp.static_fixed" (List.length fs);
            Presolve.apply_fixings s fs
      in
      match Presolve.run s with
      | Presolve.Infeasible -> (Infeasible, finished 0 false)
      | Presolve.Solved { values } ->
          Svutil.Metrics.count metrics "ilp.presolve_fixed" s.Problem.n;
          let objective = Linexpr.eval s.Problem.objective (fun v -> values.(v)) in
          let ok = match cutoff with None -> true | Some c -> Rat.lt objective c in
          let finished = finished ~root_bound:objective in
          if ok then (Optimal { objective; values }, finished 0 false)
          else (Infeasible, finished 0 false)
      | Presolve.Reduced { problem = p; restore; keep } ->
        let jobs = max 1 jobs in
        Svutil.Metrics.count metrics "ilp.presolve_fixed" (s.Problem.n - p.Problem.n);
        (* The cutoff lives in the original objective space; fixed
           variables contribute a constant the reduced objective lacks. *)
        let kappa =
          Linexpr.eval s.Problem.objective (fun v ->
              (restore (Array.make p.Problem.n Rat.zero)).(v))
        in
        let cutoff = Option.map (fun c -> Rat.sub c kappa) cutoff in
        let nodes = ref 0 in
        let limit_hit = ref false in
        let deadline_hit = ref false in
        let root_bound = ref None in
        let unbounded = ref false in
        let best : (Rat.t * Rat.t array) option ref = ref None in
        let current_cut () =
          match (!best, cutoff) with
          | Some (b, _), Some c -> Some (Rat.min b c)
          | Some (b, _), None -> Some b
          | None, c -> c
        in
        let dominated obj =
          match current_cut () with Some c -> Rat.geq obj c | None -> false
        in
        let offer values =
          let obj = Linexpr.eval p.Problem.objective (fun v -> values.(v)) in
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
        (* Warm incumbent: a caller-supplied candidate point in the
           original variable space (typically the solution of a nearby
           problem, via [Core.Delta] or the greedy seed). It is
           projected through [keep] — coordinates presolve fixed are
           simply overridden, so a point that disagrees with a fixing
           still stands in for the feasible [restore]d point it projects
           to — and admitted only when exactly feasible for the reduced
           problem. Unlike [offer]'s strict domination test it may sit
           exactly at the cutoff: it then becomes the incumbent the
           search must strictly beat, so a completed run returns it as
           [Optimal] instead of [Infeasible]. *)
        (match incumbent with
        | None -> ()
        | Some inc ->
            let proj = Array.map (fun i -> inc.(i)) keep in
            if feasible_point p proj then begin
              let obj = Linexpr.eval p.Problem.objective (fun v -> proj.(v)) in
              let ok =
                match cutoff with Some c -> Rat.leq obj c | None -> true
              in
              if ok then begin
                Svutil.Metrics.tick metrics "ilp.warm_incumbents";
                best := Some (obj, proj)
              end
            end);
        (* One lazily-created warm solver state per worker slot; a slot
           is used by at most one domain per round, and rounds are
           separated by joins. Each slot also gets its own metrics
           registry — a live registry is not thread-safe, so workers
           never share one; the slots are absorbed into [metrics] after
           the search loop. *)
        let states = Array.make jobs None in
        let slot_metrics =
          Array.init jobs (fun _ ->
              if Svutil.Metrics.enabled metrics then Svutil.Metrics.create ()
              else Svutil.Metrics.nop)
        in
        let node_solve slot ~lb ~ub =
          (match states.(slot) with
          | None ->
              states.(slot) <-
                Some (Solver.warm_create ~deadline ~metrics:slot_metrics.(slot) p)
          | Some _ -> ());
          match states.(slot) with
          | Some (Some w) -> Solver.warm_solve ~deadline w ~lb ~ub
          | _ ->
              Solver.solve ~deadline ~metrics:slot_metrics.(slot)
                (Problem.with_bounds p ~lb ~ub)
        in
        let pq = Svutil.Pq.create ~cmp:node_cmp in
        let seq = ref 0 in
        let push_children parent_obj lb ub values =
          let i = branch_var p values in
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
        let process res (nd_lb, nd_ub) =
          match res with
          | Simplex.Infeasible -> ()
          | Simplex.Unbounded -> unbounded := true
          | Simplex.Optimal { objective; values } ->
              if not (dominated objective) then
                push_children objective nd_lb nd_ub values
              else Svutil.Metrics.tick metrics "ilp.pruned_bound"
        in
        (* Root node: [warm_create] already solved it, so reuse its
           optimum rather than reoptimizing under unchanged bounds. *)
        incr nodes;
        (match
           (try
              states.(0) <-
                Some (Solver.warm_create ~deadline ~metrics:slot_metrics.(0) p);
              `Solved
                (match states.(0) with
                | Some (Some w) -> Solver.warm_root w
                | _ -> Solver.solve ~deadline ~metrics:slot_metrics.(0) p)
            with Svutil.Deadline.Expired -> `Timeout)
         with
        | `Timeout -> deadline_hit := true
        | `Solved Simplex.Infeasible -> ()
        | `Solved Simplex.Unbounded -> unbounded := true
        | `Solved (Simplex.Optimal { objective; values }) ->
            root_bound := Some (Rat.add objective kappa);
            if not (dominated objective) then begin
              seed_incumbent values;
              push_children objective p.Problem.lb p.Problem.ub values
            end
            else Svutil.Metrics.tick metrics "ilp.pruned_bound");
        (* Best-first loop, evaluating up to [jobs] open nodes per round. *)
        let continue_ = ref true in
        while
          !continue_ && (not !unbounded) && (not !deadline_hit)
          && not (Svutil.Pq.is_empty pq)
        do
          (* The queue is ordered by bound: once the top is dominated,
             everything is, and the incumbent is proven optimal. *)
          (match (Svutil.Pq.peek pq, current_cut ()) with
          | Some top, Some c when Rat.geq top.bound c ->
              Svutil.Metrics.count metrics "ilp.pruned_bound" (Svutil.Pq.length pq);
              Svutil.Pq.clear pq
          | _ -> ());
          if Svutil.Pq.is_empty pq then continue_ := false
          else if Svutil.Deadline.expired deadline then deadline_hit := true
          else if !nodes >= node_limit then begin
            limit_hit := true;
            continue_ := false
          end
          else begin
            let batch_size = min jobs (node_limit - !nodes) in
            let batch = ref [] in
            while List.length !batch < batch_size && not (Svutil.Pq.is_empty pq) do
              match Svutil.Pq.pop pq with
              | Some nd -> batch := nd :: !batch
              | None -> ()
            done;
            let batch = List.rev !batch in
            nodes := !nodes + List.length batch;
            (* A worker whose LP ran out of budget reports [None]; the
               round's completed solves are still harvested, then the
               search stops with the incumbent it has. *)
            let results =
              Svutil.Par.map ~jobs
                (fun (slot, nd) ->
                  try Some (node_solve slot ~lb:nd.lb ~ub:nd.ub)
                  with Svutil.Deadline.Expired -> None)
                (List.mapi (fun slot nd -> (slot, nd)) batch)
            in
            List.iter2
              (fun nd res ->
                match res with
                | Some r -> process r (nd.lb, nd.ub)
                | None -> deadline_hit := true)
              batch results
          end
        done;
        Array.iter (fun wm -> Svutil.Metrics.absorb metrics wm) slot_metrics;
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
            let objective = Linexpr.eval s.Problem.objective (fun v -> full.(v)) in
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

  let solve ?node_limit ?cutoff ?incumbent ?jobs ?deadline ?metrics ?fixings s =
    fst
      (solve_with_stats ?node_limit ?cutoff ?incumbent ?jobs ?deadline ?metrics
         ?fixings s)

  (* The pre-overhaul recursive depth-first solver, verbatim: cold LP
     solve per node, fixed 1e-6 snapping tolerance. Kept as the oracle
     for the differential test suite — presolve, warm starts, best-first
     search, and the parallel pool must change time, never answers. *)
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
                let obj = Linexpr.eval s.Problem.objective (fun v -> snapped.(v)) in
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
