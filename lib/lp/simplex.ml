type result =
  | Optimal of { objective : Rat.t; values : Rat.t array }
  | Infeasible
  | Unbounded

module type SOLVER = sig
  val solve :
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    result

  type warm

  val warm_create :
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    warm option

  val warm_root : warm -> result

  val warm_solve :
    ?deadline:Svutil.Deadline.t ->
    warm ->
    lb:Rat.t array ->
    ub:Rat.t option array ->
    result
end

let src = Logs.Src.create "secure_view.simplex" ~doc:"Two-phase simplex solver"

module Log = (val Logs.src_log src : Logs.LOG)

module Exact : SOLVER = struct
  let iteration_limit = 200_000

  (* Deadline polls read the clock once per this many pivots: cheap
     enough to be invisible, frequent enough that a budget overrun is
     bounded by a few pivots' work. *)
  let deadline_poll_mask = 63

  (* A warm reoptimization is supposed to be a handful of pivots; past
     this budget the caller falls back to a cold two-phase solve. *)
  let dual_iteration_limit = 2_000

  (* Pivot selection is Dantzig (steepest reduced cost) until a streak
     of degenerate pivots this long, then Bland until the next
     improving step; any cycle is all-degenerate, so this terminates. *)
  let degenerate_streak_limit = 40

  (* The tableau works over shifted variables [y_i = x_i - lb_i >= 0];
     upper bounds become explicit rows. Columns are: [0..n-1] structural,
     then slacks, then artificials. *)
  type tableau = {
    ncols : int;
    first_art : int;  (** columns >= first_art are artificial *)
    a : Rat.t array array;  (** m rows *)
    b : Rat.t array;
    basis : int array;
  }

  (* The pivot's inner loops ([dst <- dst - f * src], [dst <- dst / pv])
     skip zero entries: the gadget programs are sparse, and every
     skipped multiply is a skipped bignum allocation. *)
  let row_axpy f src dst =
    for j = 0 to Array.length dst - 1 do
      let p = Array.unsafe_get src j in
      if not (Rat.is_zero p) then
        Array.unsafe_set dst j (Rat.sub (Array.unsafe_get dst j) (Rat.mul f p))
    done

  let row_div dst pv =
    for j = 0 to Array.length dst - 1 do
      let v = Array.unsafe_get dst j in
      if not (Rat.is_zero v) then Array.unsafe_set dst j (Rat.div v pv)
    done

  let pivot t ~rc ~row ~col =
    let m = Array.length t.b in
    let arow = t.a.(row) in
    let pv = arow.(col) in
    if Rat.compare pv Rat.one <> 0 then begin
      row_div arow pv;
      t.b.(row) <- Rat.div t.b.(row) pv
    end;
    arow.(col) <- Rat.one;
    for i = 0 to m - 1 do
      if i <> row then begin
        let ai = t.a.(i) in
        let f = ai.(col) in
        if not (Rat.is_zero f) then begin
          row_axpy f arow ai;
          ai.(col) <- Rat.zero;
          t.b.(i) <- Rat.sub t.b.(i) (Rat.mul f t.b.(row))
        end
      end
    done;
    let f = rc.(col) in
    if not (Rat.is_zero f) then begin
      row_axpy f arow rc;
      rc.(col) <- Rat.zero
    end;
    t.basis.(row) <- col

  (* Reduced costs of [cost] under the current basis. *)
  let reduced_costs t cost =
    let m = Array.length t.b in
    let rc = Array.copy cost in
    for i = 0 to m - 1 do
      let cb = cost.(t.basis.(i)) in
      if not (Rat.is_zero cb) then row_axpy cb t.a.(i) rc
    done;
    rc

  let objective_value t cost =
    let z = ref Rat.zero in
    Array.iteri (fun i bi -> z := Rat.add !z (Rat.mul cost.(t.basis.(i)) bi)) t.b;
    !z

  (* Minimize [cost] over the tableau, entering only [allowed] columns.
     Dantzig's rule (most negative reduced cost) with a Bland fallback
     during long degenerate streaks for anti-cycling; ties in the ratio
     test broken by lowest basis variable. *)
  let optimize t ~deadline ~metrics ~cost ~allowed =
    let m = Array.length t.b in
    let rc = reduced_costs t cost in
    let degen = ref 0 in
    let pivots = ref 0 in
    let polls = ref 0 in
    (* Hot loop: accumulate locally, flush once per call — even when the
       deadline fires mid-optimization. *)
    let flush () =
      Svutil.Metrics.count metrics "simplex.pivots" !pivots;
      Svutil.Metrics.count metrics "simplex.deadline_polls" !polls
    in
    let rec loop iter =
      if iter > iteration_limit then failwith "Simplex: iteration limit exceeded";
      if iter land deadline_poll_mask = 0 then begin
        incr polls;
        Svutil.Deadline.check deadline
      end;
      let entering = ref (-1) in
      if !degen > degenerate_streak_limit then (
        try
          for j = 0 to t.ncols - 1 do
            if allowed j && Rat.lt rc.(j) Rat.zero then begin
              entering := j;
              raise Exit
            end
          done
        with Exit -> ())
      else begin
        let best = ref Rat.zero in
        for j = 0 to t.ncols - 1 do
          if allowed j && Rat.lt rc.(j) !best then begin
            entering := j;
            best := rc.(j)
          end
        done
      end;
      if !entering < 0 then `Optimal
      else begin
        let col = !entering in
        let row = ref (-1) in
        let best = ref Rat.zero in
        for i = 0 to m - 1 do
          if Rat.gt t.a.(i).(col) Rat.zero then begin
            let ratio = Rat.div t.b.(i) t.a.(i).(col) in
            if !row < 0 || Rat.lt ratio !best
               || (Rat.compare ratio !best = 0 && t.basis.(i) < t.basis.(!row))
            then begin
              row := i;
              best := ratio
            end
          end
        done;
        if !row < 0 then `Unbounded
        else begin
          if Rat.is_zero !best then incr degen else degen := 0;
          pivot t ~rc ~row:!row ~col;
          incr pivots;
          loop (iter + 1)
        end
      end
    in
    match loop 0 with
    | r ->
        flush ();
        r
    | exception e ->
        flush ();
        raise e

  exception Bad_bounds

  (* Build the initial tableau for [rows] over [n] structural variables
     (right-hand sides already shifted). Returns the tableau, the number
     of artificial columns, and for each row its designated unit column
     — the column that held [e_row] at build time, i.e. the row's slack
     when it starts basic, otherwise its artificial. Any later tableau
     state holds [B^-1 e_row] in that column, which is what the warm
     path needs to apply right-hand-side deltas incrementally. *)
  let build_tableau ~n rows =
    let m = Array.length rows in
    let n_slack =
      Array.fold_left
        (fun acc (_, cmp, _) -> match cmp with Problem.Eq -> acc | _ -> acc + 1)
        0 rows
    in
    let first_art = n + n_slack in
    let a0 = Array.init m (fun _ -> Array.make first_art Rat.zero) in
    let b = Array.make m Rat.zero in
    let slack_of_row = Array.make m (-1) in
    let next_slack = ref n in
    Array.iteri
      (fun i (expr, cmp, rhs) ->
        List.iter (fun (v, c) -> a0.(i).(v) <- c) (Linexpr.to_list expr);
        b.(i) <- rhs;
        (match cmp with
        | Problem.Le ->
            a0.(i).(!next_slack) <- Rat.one;
            slack_of_row.(i) <- !next_slack;
            incr next_slack
        | Problem.Ge ->
            a0.(i).(!next_slack) <- Rat.minus_one;
            slack_of_row.(i) <- !next_slack;
            incr next_slack
        | Problem.Eq -> ());
        (* Make the right-hand side non-negative. *)
        if Rat.lt b.(i) Rat.zero then begin
          for j = 0 to first_art - 1 do
            a0.(i).(j) <- Rat.neg a0.(i).(j)
          done;
          b.(i) <- Rat.neg b.(i)
        end)
      rows;
    (* A row whose slack has coefficient +1 can start with the slack
       basic; every other row gets an artificial variable. *)
    let needs_art i =
      slack_of_row.(i) < 0 || Rat.compare a0.(i).(slack_of_row.(i)) Rat.one <> 0
    in
    let n_art = ref 0 in
    for i = 0 to m - 1 do
      if needs_art i then incr n_art
    done;
    let ncols = first_art + !n_art in
    let a = Array.init m (fun i -> Array.append a0.(i) (Array.make !n_art Rat.zero)) in
    let basis = Array.make m (-1) in
    let unit_col = Array.make m (-1) in
    let next_art = ref first_art in
    for i = 0 to m - 1 do
      if needs_art i then begin
        a.(i).(!next_art) <- Rat.one;
        basis.(i) <- !next_art;
        unit_col.(i) <- !next_art;
        incr next_art
      end
      else begin
        basis.(i) <- slack_of_row.(i);
        unit_col.(i) <- slack_of_row.(i)
      end
    done;
    ({ ncols; first_art; a; b; basis }, !n_art, unit_col)

  (* Phase 1 (when artificials exist), drive-out, then phase 2. *)
  let two_phase t ~deadline ~metrics ~n_art ~cost2 =
    let m = Array.length t.b in
    if n_art > 0 then begin
      let cost1 = Array.make t.ncols Rat.zero in
      for j = t.first_art to t.ncols - 1 do
        cost1.(j) <- Rat.one
      done;
      (match optimize t ~deadline ~metrics ~cost:cost1 ~allowed:(fun _ -> true) with
      | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
      | `Optimal -> ());
      if Rat.gt (objective_value t cost1) Rat.zero then `Infeasible
      else begin
        (* Drive remaining artificials out of the basis where possible. *)
        for i = 0 to m - 1 do
          if t.basis.(i) >= t.first_art then begin
            let col = ref (-1) in
            (try
               for j = 0 to t.first_art - 1 do
                 if not (Rat.is_zero t.a.(i).(j)) then begin
                   col := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !col >= 0 then begin
              let rc = Array.make t.ncols Rat.zero in
              pivot t ~rc ~row:i ~col:!col
            end
            (* Otherwise the row is redundant; the artificial stays basic
               at value zero and can never re-enter or change. *)
          end
        done;
        optimize t ~deadline ~metrics ~cost:cost2 ~allowed:(fun j -> j < t.first_art)
      end
    end
    else optimize t ~deadline ~metrics ~cost:cost2 ~allowed:(fun j -> j < t.first_art)

  (* Read structural values off an optimal tableau (shifted by [lb0]). *)
  let extract t ~n ~lb0 ~objective =
    let y = Array.make n Rat.zero in
    Array.iteri (fun i v -> if v < n then y.(v) <- t.b.(i)) t.basis;
    let x = Array.init n (fun i -> Rat.add y.(i) lb0.(i)) in
    let obj = Linexpr.eval objective (fun v -> x.(v)) in
    Optimal { objective = obj; values = x }

  let phase2_cost ~ncols objective =
    let cost2 = Array.make ncols Rat.zero in
    List.iter (fun (v, c) -> cost2.(v) <- c) (Linexpr.to_list objective);
    cost2

  let solve ?(deadline = Svutil.Deadline.none) ?(metrics = Svutil.Metrics.nop)
      (s : Problem.snapshot) =
    let n = s.n in
    Svutil.Metrics.tick metrics "simplex.cold_starts";
    try
      (* Shift: y_i = x_i - lb_i. *)
      let shift_rhs expr rhs =
        Rat.sub rhs
          (Rat.sum (List.map (fun (v, c) -> Rat.mul c s.lb.(v)) (Linexpr.to_list expr)))
      in
      let rows =
        Array.to_list s.constraints
        |> List.map (fun (expr, cmp, rhs) -> (expr, cmp, shift_rhs expr rhs))
      in
      (* Upper bounds become rows y_i <= ub_i - lb_i. *)
      let ub_rows =
        List.concat
          (List.init n (fun i ->
               match s.ub.(i) with
               | None -> []
               | Some u ->
                   let d = Rat.sub u s.lb.(i) in
                   if Rat.sign d < 0 then raise Bad_bounds
                   else [ (Linexpr.term i Rat.one, Problem.Le, d) ]))
      in
      let t, n_art, _unit_col = build_tableau ~n (Array.of_list (rows @ ub_rows)) in
      let cost2 = phase2_cost ~ncols:t.ncols s.objective in
      match two_phase t ~deadline ~metrics ~n_art ~cost2 with
      | `Infeasible ->
          Log.debug (fun f -> f "infeasible (%d cols)" t.ncols);
          Infeasible
      | `Unbounded ->
          Log.debug (fun f -> f "unbounded (%d cols)" t.ncols);
          Unbounded
      | `Optimal ->
          Log.debug (fun f -> f "optimal (%d cols)" t.ncols);
          extract t ~n ~lb0:s.lb ~objective:s.objective
    with Bad_bounds -> Infeasible

  (* {2 Warm-started reoptimization}

     A branch-and-bound node differs from its parent only in the bounds
     of integer variables. With those bounds carried as explicit rows
     (one <=-row for the upper bound, one for the negated lower bound),
     a bound change is a pure right-hand-side change: the basis stays
     dual feasible and a short dual-simplex pass restores primal
     feasibility, instead of a full two-phase solve per node. *)

  type warm = {
    prob : Problem.snapshot;
    lb0 : Rat.t array;  (** root lower bounds: the tableau's shift *)
    t : tableau;
    cost2 : Rat.t array;
    unit_col : int array;
    b0 : Rat.t array;  (** right-hand side currently applied, per row *)
    lb_row : int array;  (** row carrying var i's lower bound, or -1 *)
    ub_row : int array;
    root : result;  (** the root optimum found at creation time *)
    metrics : Svutil.Metrics.t;
    mutable ok : bool;  (** false: give up on warm starts, always cold-solve *)
  }

  let warm_create ?(deadline = Svutil.Deadline.none)
      ?(metrics = Svutil.Metrics.nop) (s : Problem.snapshot) =
    let n = s.n in
    let need_pair = Array.init n (fun i -> s.integer.(i)) in
    let missing_ub =
      Array.exists (fun i -> i) (Array.init n (fun i -> need_pair.(i) && s.ub.(i) = None))
    in
    if missing_ub then None
    else
      try
        let lb0 = Array.copy s.lb in
        let shift_rhs expr rhs =
          Rat.sub rhs
            (Rat.sum (List.map (fun (v, c) -> Rat.mul c lb0.(v)) (Linexpr.to_list expr)))
        in
        let base_rows =
          Array.to_list s.constraints
          |> List.map (fun (expr, cmp, rhs) -> (expr, cmp, shift_rhs expr rhs))
        in
        let m0 = List.length base_rows in
        let lb_row = Array.make n (-1) in
        let ub_row = Array.make n (-1) in
        let extra = ref [] in
        let next = ref m0 in
        for i = 0 to n - 1 do
          if need_pair.(i) then begin
            let u = match s.ub.(i) with Some u -> u | None -> assert false in
            let d = Rat.sub u lb0.(i) in
            if Rat.sign d < 0 then raise Bad_bounds;
            extra := (Linexpr.term i Rat.one, Problem.Le, d) :: !extra;
            ub_row.(i) <- !next;
            incr next;
            (* -y_i <= -(lb_i - lb0_i): rhs 0 at the root, tightened later. *)
            extra := (Linexpr.term i Rat.minus_one, Problem.Le, Rat.zero) :: !extra;
            lb_row.(i) <- !next;
            incr next
          end
          else
            match s.ub.(i) with
            | None -> ()
            | Some u ->
                let d = Rat.sub u lb0.(i) in
                if Rat.sign d < 0 then raise Bad_bounds;
                extra := (Linexpr.term i Rat.one, Problem.Le, d) :: !extra;
                incr next
        done;
        let rows = Array.of_list (base_rows @ List.rev !extra) in
        let t, n_art, unit_col = build_tableau ~n rows in
        let b0 = Array.copy t.b in
        let cost2 = phase2_cost ~ncols:t.ncols s.objective in
        match two_phase t ~deadline ~metrics ~n_art ~cost2 with
        | `Infeasible | `Unbounded -> None
        | `Optimal ->
            Some
              {
                prob = s;
                lb0;
                t;
                cost2;
                unit_col;
                b0;
                lb_row;
                ub_row;
                root = extract t ~n ~lb0 ~objective:s.objective;
                metrics;
                ok = true;
              }
      with Bad_bounds -> None

  let warm_root w = w.root

  exception Not_applicable

  (* Apply the node's integer-variable bounds as right-hand-side deltas.
     The tableau column [unit_col.(r)] holds [B^-1 e_r], so a delta [d]
     on row [r]'s original rhs moves the current basic solution by
     [d * column]. *)
  let apply_bounds w ~lb ~ub =
    let t = w.t in
    let m = Array.length t.b in
    let apply r rhs =
      if Rat.compare rhs w.b0.(r) <> 0 then begin
        let d = Rat.sub rhs w.b0.(r) in
        let c = w.unit_col.(r) in
        for k = 0 to m - 1 do
          let v = t.a.(k).(c) in
          if not (Rat.is_zero v) then t.b.(k) <- Rat.add t.b.(k) (Rat.mul d v)
        done;
        w.b0.(r) <- rhs
      end
    in
    for i = 0 to w.prob.Problem.n - 1 do
      if w.ub_row.(i) >= 0 then begin
        (match ub.(i) with
        | None -> raise Not_applicable
        | Some u -> apply w.ub_row.(i) (Rat.sub u w.lb0.(i)));
        apply w.lb_row.(i) (Rat.neg (Rat.sub lb.(i) w.lb0.(i)))
      end
    done

  (* Bounded dual simplex (Bland's rule in the dual), then a primal
     pass over whatever negative reduced costs the dual pass left. *)
  let reoptimize ~deadline w =
    let t = w.t in
    let m = Array.length t.b in
    let rc = reduced_costs t w.cost2 in
    let pivots = ref 0 in
    let polls = ref 0 in
    let flush () =
      Svutil.Metrics.count w.metrics "simplex.pivots" !pivots;
      Svutil.Metrics.count w.metrics "simplex.deadline_polls" !polls
    in
    let rec dual iter =
      if iter > dual_iteration_limit then `Fail
      else begin
        if iter land deadline_poll_mask = 0 then begin
          incr polls;
          Svutil.Deadline.check deadline
        end;
        let row = ref (-1) in
        for i = 0 to m - 1 do
          if Rat.lt t.b.(i) Rat.zero && (!row < 0 || t.basis.(i) < t.basis.(!row)) then
            row := i
        done;
        if !row < 0 then `Primal_feasible
        else begin
          let arow = t.a.(!row) in
          let col = ref (-1) in
          let best = ref Rat.zero in
          for j = 0 to t.first_art - 1 do
            let arj = arow.(j) in
            if Rat.lt arj Rat.zero then begin
              let ratio = Rat.div rc.(j) (Rat.neg arj) in
              if !col < 0 || Rat.lt ratio !best then begin
                col := j;
                best := ratio
              end
            end
          done;
          if !col < 0 then `Infeasible
          else begin
            pivot t ~rc ~row:!row ~col:!col;
            incr pivots;
            dual (iter + 1)
          end
        end
      end
    in
    let dual_result =
      match dual 0 with
      | r ->
          flush ();
          r
      | exception e ->
          flush ();
          raise e
    in
    match dual_result with
    | `Fail -> `Fail
    | `Infeasible -> `Infeasible
    | `Primal_feasible -> (
        match
          optimize t ~deadline ~metrics:w.metrics ~cost:w.cost2
            ~allowed:(fun j -> j < t.first_art)
        with
        | `Optimal -> `Optimal
        | `Unbounded ->
            (* Nodes of a bounded root can't be unbounded; let the
               cold solver decide. *)
            `Fail)

  let warm_solve ?(deadline = Svutil.Deadline.none) w ~lb ~ub =
    let cold () =
      solve ~deadline ~metrics:w.metrics (Problem.with_bounds w.prob ~lb ~ub)
    in
    if not w.ok then cold ()
    else begin
      Svutil.Metrics.tick w.metrics "simplex.warm_starts";
      match apply_bounds w ~lb ~ub with
      | exception Not_applicable ->
          w.ok <- false;
          cold ()
      | () -> (
          match reoptimize ~deadline w with
          | `Optimal ->
              extract w.t ~n:w.prob.Problem.n ~lb0:w.lb0
                ~objective:w.prob.Problem.objective
          | `Infeasible -> Infeasible
          | `Fail ->
              Log.debug (fun f -> f "warm reoptimize failed; cold fallback");
              (* The partially-pivoted tableau is still a consistent
                 basis for the applied bounds, so later warm solves can
                 continue from it. *)
              cold ())
    end
end

(* {2 Hybrid-precision solver}

   Hunt for the optimal basis in doubles (sparse revised simplex,
   {!Fsimplex}), then certify that single basis in exact rationals
   ({!Certify}): accept it on an exact check of its float point, repair
   it with a short exact cleanup, or — only when certification fails
   outright — fall back to the exact two-phase solver above.  Results
   are exact rationals either way; the float pass is pure heuristics. *)
module Hybrid : SOLVER = struct
  let fallback ~deadline ~metrics s =
    Svutil.Metrics.tick metrics "certify.fallbacks";
    Exact.solve ~deadline ~metrics s

  (* The exact verdict on what the float pass found; [Cert_fail] sends
     the caller to the fallback. *)
  let certify ~deadline ~metrics sf ~rhs ~lb = function
    | Fsimplex.Optimal_basis { basis; point } ->
        Certify.check ~deadline ~metrics ~point sf ~rhs ~lb ~basis
    | Fsimplex.Infeasible_col { basis; col } ->
        if Certify.check_farkas ~deadline sf ~rhs ~basis ~col then
          Certify.Cert_infeasible
        else Certify.Cert_fail
    | Fsimplex.Stalled -> Certify.Cert_fail

  (* One float-solve/certify round over a prepared standard form. *)
  let solve_sform ~deadline ~metrics ~fs ~sf ~lb ~ub s =
    match Sform.rhs sf ~lb ~ub with
    | Sform.Crossed -> Infeasible
    | Sform.Mismatch ->
        (* bound pattern changed under us: not expected from B&B, but
           stay correct *)
        fallback ~deadline ~metrics s
    | Sform.Rhs rhs -> (
        let found =
          Svutil.Metrics.span metrics "lp/float" (fun () ->
              Fsimplex.solve ~deadline ~metrics fs ~rhs)
        in
        match
          Svutil.Metrics.span metrics "lp/certify" (fun () ->
              certify ~deadline ~metrics sf ~rhs ~lb found)
        with
        | Certify.Cert_optimal { objective; values; _ } ->
            Optimal { objective; values }
        | Certify.Cert_infeasible -> Infeasible
        | Certify.Cert_unbounded -> Unbounded
        | Certify.Cert_fail -> fallback ~deadline ~metrics s)

  (* The layout and the float solver state over it. *)
  let prepare ~metrics s =
    Svutil.Metrics.span metrics "lp/sform" (fun () ->
        let sf = Sform.make s in
        (sf, Fsimplex.create sf))

  let solve ?(deadline = Svutil.Deadline.none) ?(metrics = Svutil.Metrics.nop)
      (s : Problem.snapshot) =
    let sf, fs = prepare ~metrics s in
    solve_sform ~deadline ~metrics ~fs ~sf ~lb:s.lb ~ub:s.ub s

  type warm = {
    prob : Problem.snapshot;
    sf : Sform.t;
    fs : Fsimplex.t;
    root : result;
    metrics : Svutil.Metrics.t;
  }

  let warm_create ?(deadline = Svutil.Deadline.none)
      ?(metrics = Svutil.Metrics.nop) (s : Problem.snapshot) =
    let sf, fs = prepare ~metrics s in
    match solve_sform ~deadline ~metrics ~fs ~sf ~lb:s.lb ~ub:s.ub s with
    | Optimal _ as root -> Some { prob = s; sf; fs; root; metrics }
    | Infeasible | Unbounded -> None

  let warm_root w = w.root

  let warm_solve ?(deadline = Svutil.Deadline.none) w ~lb ~ub =
    Svutil.Metrics.tick w.metrics "simplex.warm_starts";
    let s = Problem.with_bounds w.prob ~lb ~ub in
    solve_sform ~deadline ~metrics:w.metrics ~fs:w.fs ~sf:w.sf ~lb ~ub s
end

type mode = Exact_mode | Hybrid_mode

let solver_of_mode : mode -> (module SOLVER) = function
  | Exact_mode -> (module Exact)
  | Hybrid_mode -> (module Hybrid)
