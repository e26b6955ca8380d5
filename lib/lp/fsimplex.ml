(* Numerical tolerances.  The float pass only proposes bases — every
   acceptance decision is re-made exactly by Certify — so these trade
   pivot count against fallback rate, not correctness. *)
let dual_tol = 1e-7 (* reduced cost below -dual_tol may enter *)
let pivot_tol = 1e-8 (* smallest pivot element we will divide by *)
let feas_tol = 1e-7 (* Harris-style slack on basic-value feasibility *)
let drop_tol = 1e-12 (* eta entries below this are dropped as zero *)
let deadline_poll_mask = 31
let primal_iteration_cap = 10_000
let dual_iteration_cap = 500

type eta = { er : int; pr : float; idx : int array; vals : float array }

type t = {
  sf : Sform.t;
  fcols : (int array * float array) array;  (* structural + slack columns *)
  fobj : float array;  (* phase-2 cost over j < first_art *)
  basis : int array;  (* row -> basic column *)
  inb : bool array;  (* per column: currently basic? *)
  art_sign : int array;  (* per row: sign of its artificial column *)
  xb : float array;  (* basic values, by row *)
  mutable etas : eta array;
  mutable n_etas : int;
  mutable valid : bool;  (* basis + eta file describe a prior optimum *)
  (* scratch, sized once *)
  w : float array;
  y : float array;
}

let create (sf : Sform.t) =
  let fcols =
    Array.map
      (fun (ri, vs) -> (ri, Array.map Rat.to_float vs))
      sf.Sform.cols
  in
  {
    sf;
    fcols;
    fobj = Array.map Rat.to_float sf.Sform.obj;
    basis = Array.make sf.Sform.m (-1);
    inb = Array.make sf.Sform.ncols false;
    art_sign = Array.make sf.Sform.m 0;
    xb = Array.make sf.Sform.m 0.;
    etas = [||];
    n_etas = 0;
    valid = false;
    w = Array.make sf.Sform.m 0.;
    y = Array.make sf.Sform.m 0.;
  }

type point = { xb : float array; y : float array }

type outcome =
  | Optimal_basis of { basis : int array; point : point }
  | Infeasible_basis of { basis : int array; art_sign : int array }
  | Infeasible_col of { basis : int array; col : int }
  | Unbounded_hint of int array
  | Stalled

(* {2 Eta file} *)

let push_eta t e =
  if t.n_etas = Array.length t.etas then begin
    let cap = max 16 (2 * Array.length t.etas) in
    let arr = Array.make cap e in
    Array.blit t.etas 0 arr 0 t.n_etas;
    t.etas <- arr
  end;
  t.etas.(t.n_etas) <- e;
  t.n_etas <- t.n_etas + 1

let eta_of_dense ~r w =
  let nnz = ref 0 in
  Array.iteri (fun i v -> if i <> r && abs_float v > drop_tol then incr nnz) w;
  let idx = Array.make !nnz 0 and vals = Array.make !nnz 0. in
  let k = ref 0 in
  Array.iteri
    (fun i v ->
      if i <> r && abs_float v > drop_tol then begin
        idx.(!k) <- i;
        vals.(!k) <- v;
        incr k
      end)
    w;
  { er = r; pr = w.(r); idx; vals }

(* v := B^-1 v : apply etas oldest to newest. *)
let ftran t v =
  for k = 0 to t.n_etas - 1 do
    let e = t.etas.(k) in
    let vr = v.(e.er) in
    if vr <> 0. then begin
      let p = vr /. e.pr in
      v.(e.er) <- p;
      for i = 0 to Array.length e.idx - 1 do
        v.(e.idx.(i)) <- v.(e.idx.(i)) -. (e.vals.(i) *. p)
      done
    end
  done

(* y := y B^-1 (row form): apply etas newest to oldest. *)
let btran t y =
  for k = t.n_etas - 1 downto 0 do
    let e = t.etas.(k) in
    let s = ref 0. in
    for i = 0 to Array.length e.idx - 1 do
      s := !s +. (e.vals.(i) *. y.(e.idx.(i)))
    done;
    y.(e.er) <- (y.(e.er) -. !s) /. e.pr
  done

(* {2 Columns} *)

let col_dot t y j =
  if j < t.sf.Sform.first_art then begin
    let ri, vs = t.fcols.(j) in
    let s = ref 0. in
    for k = 0 to Array.length ri - 1 do
      s := !s +. (vs.(k) *. y.(ri.(k)))
    done;
    !s
  end
  else begin
    let r = j - t.sf.Sform.first_art in
    float_of_int t.art_sign.(r) *. y.(r)
  end

(* Load column [j] densely into [w] (zeroing it first). *)
let load_col t j w =
  Array.fill w 0 (Array.length w) 0.;
  if j < t.sf.Sform.first_art then begin
    let ri, vs = t.fcols.(j) in
    for k = 0 to Array.length ri - 1 do
      w.(ri.(k)) <- vs.(k)
    done
  end
  else begin
    let r = j - t.sf.Sform.first_art in
    w.(r) <- float_of_int t.art_sign.(r)
  end

(* {2 Refactorization}

   Rebuild the eta file for the current basis from scratch: greedily
   process the cheapest remaining column first (fewest nonzeros in the
   still-unpivoted rows — a Markowitz-style ordering that keeps fill-in
   low on the near-triangular bases these LPs produce), picking the
   largest available pivot element for stability.  Reassigns rows to
   columns, so [basis] is treated as a set. *)
let refactorize t =
  let m = t.sf.Sform.m in
  let cols = Array.copy t.basis in
  let row_done = Array.make m false in
  let col_done = Array.make (Array.length cols) false in
  t.n_etas <- 0;
  let live_nnz j =
    let c = ref 0 in
    if j < t.sf.Sform.first_art then begin
      let ri, _ = t.fcols.(j) in
      Array.iter (fun r -> if not row_done.(r) then incr c) ri
    end
    else if not row_done.(j - t.sf.Sform.first_art) then incr c;
    !c
  in
  try
    for _ = 0 to m - 1 do
      let pick = ref (-1) and best = ref max_int in
      for k = 0 to Array.length cols - 1 do
        if not col_done.(k) then begin
          let nnz = live_nnz cols.(k) in
          if nnz < !best then begin
            best := nnz;
            pick := k
          end
        end
      done;
      if !pick < 0 then raise Exit;
      let k = !pick in
      let j = cols.(k) in
      load_col t j t.w;
      ftran t t.w;
      let r = ref (-1) and mag = ref pivot_tol in
      for i = 0 to m - 1 do
        if (not row_done.(i)) && abs_float t.w.(i) > !mag then begin
          r := i;
          mag := abs_float t.w.(i)
        end
      done;
      if !r < 0 then raise Exit;
      push_eta t (eta_of_dense ~r:!r t.w);
      row_done.(!r) <- true;
      col_done.(k) <- true;
      t.basis.(!r) <- j
    done;
    true
  with Exit -> false

let refactor_threshold t = (4 * t.sf.Sform.m) + 50

(* {2 Solve} *)

exception Stop of outcome

let solve ?(deadline = Svutil.Deadline.none) ?(metrics = Svutil.Metrics.nop) t
    ~rhs =
  let sf = t.sf in
  let m = sf.Sform.m in
  let first_art = sf.Sform.first_art in
  let fb = Array.map Rat.to_float rhs in
  let pivots = ref 0 in
  let iter = ref 0 in
  let poll () =
    if !iter land deadline_poll_mask = 0 then Svutil.Deadline.check deadline;
    incr iter
  in
  let flush () =
    Svutil.Metrics.count metrics "simplex.hybrid.float_pivots" !pivots
  in
  let set_basis r j =
    if t.basis.(r) >= 0 then t.inb.(t.basis.(r)) <- false;
    t.basis.(r) <- j;
    t.inb.(j) <- true
  in
  (* One pivot: entering column [q] (already FTRANed into [t.w]) replaces
     row [r]'s basic variable at step length [theta]. *)
  let pivot ~q ~r ~theta =
    for i = 0 to m - 1 do
      if t.w.(i) <> 0. then t.xb.(i) <- t.xb.(i) -. (theta *. t.w.(i))
    done;
    t.xb.(r) <- theta;
    push_eta t (eta_of_dense ~r t.w);
    set_basis r q;
    incr pivots;
    if t.n_etas > refactor_threshold t then begin
      if not (refactorize t) then raise (Stop Stalled);
      Array.blit fb 0 t.w 0 m;
      (* recompute basic values from the fresh factorization *)
      ftran t t.w;
      Array.blit t.w 0 t.xb 0 m
    end
  in
  (* Reduced costs of [cost] under the current basis; returns the most
     negative allowed entering column, or -1 at (float) optimality. *)
  let price cost =
    for i = 0 to m - 1 do
      t.y.(i) <- (if t.basis.(i) < first_art then cost.(t.basis.(i)) else 0.)
      (* artificials carry cost via [art_cost] below in phase 1 *)
    done;
    t.y
  in
  let entering_of ~cost ~art_cost =
    let y = price cost in
    for i = 0 to m - 1 do
      if t.basis.(i) >= first_art then y.(i) <- art_cost
    done;
    btran t y;
    let best = ref (-.dual_tol) and q = ref (-1) in
    for j = 0 to first_art - 1 do
      if not t.inb.(j) then begin
        let d = cost.(j) -. col_dot t y j in
        if d < !best then begin
          best := d;
          q := j
        end
      end
    done;
    !q
  in
  (* Primal phase: minimize [cost] (with [art_cost] on basic
     artificials), entering only structural/slack columns. *)
  let primal ~cost ~art_cost =
    let continue_ = ref true in
    let result = ref `Optimal in
    while !continue_ do
      poll ();
      if !iter > primal_iteration_cap then begin
        continue_ := false;
        result := `Stalled
      end
      else begin
        let q = entering_of ~cost ~art_cost in
        if q < 0 then continue_ := false
        else begin
          load_col t q t.w;
          ftran t t.w;
          (* Harris two-pass ratio test: first a relaxed bound using the
             feasibility tolerance, then the largest pivot element among
             rows within that bound. *)
          let bound = ref infinity in
          for i = 0 to m - 1 do
            if t.w.(i) > pivot_tol then begin
              let ratio = (t.xb.(i) +. feas_tol) /. t.w.(i) in
              if ratio < !bound then bound := ratio
            end
          done;
          if !bound = infinity then begin
            continue_ := false;
            result := `Unbounded
          end
          else begin
            let r = ref (-1) and mag = ref 0. in
            for i = 0 to m - 1 do
              if t.w.(i) > pivot_tol && t.xb.(i) /. t.w.(i) <= !bound
                 && t.w.(i) > !mag
              then begin
                r := i;
                mag := t.w.(i)
              end
            done;
            if !r < 0 then begin
              continue_ := false;
              result := `Stalled
            end
            else begin
              let theta = max 0. (t.xb.(!r) /. t.w.(!r)) in
              pivot ~q ~r:!r ~theta
            end
          end
        end
      end
    done;
    !result
  in
  (* Drive basic artificials out after a feasible phase 1, so phase 2
     pivots cannot resurrect them.  Rows that admit no pivot are
     redundant; their artificial stays basic at (float) zero and Certify
     insists on exact zero later. *)
  let drive_out_artificials () =
    for r = 0 to m - 1 do
      if t.basis.(r) >= first_art then begin
        Array.fill t.y 0 m 0.;
        t.y.(r) <- 1.;
        btran t t.y;
        let q = ref (-1) and mag = ref 1e-9 in
        for j = 0 to first_art - 1 do
          if not t.inb.(j) then begin
            let a = abs_float (col_dot t t.y j) in
            if a > !mag then begin
              mag := a;
              q := j
            end
          end
        done;
        if !q >= 0 then begin
          load_col t !q t.w;
          ftran t t.w;
          let theta = t.xb.(r) /. t.w.(r) in
          pivot ~q:!q ~r ~theta
        end
      end
    done
  in
  (* The float primal-dual pair of the current basis, recomputed from
     the eta file rather than read off the incrementally updated basic
     values: [x_B = B^-1 b] and [y = c_B B^-1]. *)
  let point () =
    let xb = Array.copy fb in
    ftran t xb;
    let y =
      Array.init m (fun i ->
          if t.basis.(i) < first_art then t.fobj.(t.basis.(i)) else 0.)
    in
    btran t y;
    { xb; y }
  in
  let phase2 () =
    match primal ~cost:t.fobj ~art_cost:0. with
    | `Optimal ->
        t.valid <- true;
        Optimal_basis { basis = Array.copy t.basis; point = point () }
    | `Unbounded -> Unbounded_hint (Array.copy t.basis)
    | `Stalled -> Stalled
  in
  let cold () =
    t.n_etas <- 0;
    Array.fill t.inb 0 sf.Sform.ncols false;
    Array.fill t.art_sign 0 m 0;
    Array.fill t.basis 0 m (-1);
    let n_art = ref 0 in
    for r = 0 to m - 1 do
      let sc = sf.Sform.slack_col.(r) in
      let sg = float_of_int sf.Sform.slack_sign.(r) in
      if sc >= 0 && fb.(r) *. sg >= 0. then begin
        t.basis.(r) <- sc;
        t.inb.(sc) <- true;
        t.xb.(r) <- fb.(r) *. sg;
        if sg < 0. then push_eta t { er = r; pr = -1.; idx = [||]; vals = [||] }
      end
      else begin
        let s = if fb.(r) >= 0. then 1 else -1 in
        t.art_sign.(r) <- s;
        t.basis.(r) <- first_art + r;
        t.inb.(first_art + r) <- true;
        t.xb.(r) <- abs_float fb.(r);
        incr n_art;
        if s < 0 then push_eta t { er = r; pr = -1.; idx = [||]; vals = [||] }
      end
    done;
    if !n_art > 0 then begin
      (* Phase 1: minimize the artificial sum (cost 0 on real columns,
         1 on artificials). *)
      let zero_cost = Array.make first_art 0. in
      match primal ~cost:zero_cost ~art_cost:1. with
      | `Stalled -> Stalled
      | `Unbounded -> Stalled (* phase 1 is bounded below; drift *)
      | `Optimal ->
          let scale = Array.fold_left (fun a v -> max a (abs_float v)) 1. fb in
          let art_sum = ref 0. in
          for r = 0 to m - 1 do
            if t.basis.(r) >= first_art then art_sum := !art_sum +. t.xb.(r)
          done;
          if !art_sum > feas_tol *. scale then
            Infeasible_basis
              { basis = Array.copy t.basis; art_sign = Array.copy t.art_sign }
          else begin
            drive_out_artificials ();
            phase2 ()
          end
    end
    else phase2 ()
  in
  (* Warm path: the previous optimal basis stays dual feasible when only
     the right-hand side moved, so a short dual-simplex pass restores
     primal feasibility without a phase 1. *)
  let warm () =
    Array.blit fb 0 t.w 0 m;
    ftran t t.w;
    Array.blit t.w 0 t.xb 0 m;
    let dual_iters = ref 0 in
    let rec dual () =
      poll ();
      incr dual_iters;
      if !dual_iters > dual_iteration_cap then `Give_up
      else begin
        let r = ref (-1) and worst = ref (-.feas_tol) in
        for i = 0 to m - 1 do
          if t.xb.(i) < !worst then begin
            worst := t.xb.(i);
            r := i
          end
        done;
        if !r < 0 then `Primal_feasible
        else begin
          let r = !r in
          (* reduced costs of the phase-2 objective *)
          let y2 = Array.make m 0. in
          for i = 0 to m - 1 do
            y2.(i) <- (if t.basis.(i) < first_art then t.fobj.(t.basis.(i)) else 0.)
          done;
          btran t y2;
          (* row r of B^-1 A *)
          Array.fill t.y 0 m 0.;
          t.y.(r) <- 1.;
          btran t t.y;
          let q = ref (-1) and best = ref infinity in
          for j = 0 to first_art - 1 do
            if not t.inb.(j) then begin
              let alpha = col_dot t t.y j in
              if alpha < -.pivot_tol then begin
                let d = max 0. (t.fobj.(j) -. col_dot t y2 j) in
                let ratio = d /. -.alpha in
                if ratio < !best then begin
                  best := ratio;
                  q := j
                end
              end
            end
          done;
          if !q < 0 then `Infeasible (t.basis.(r))
          else begin
            load_col t !q t.w;
            ftran t t.w;
            if abs_float t.w.(r) < pivot_tol then `Give_up
            else begin
              let theta = t.xb.(r) /. t.w.(r) in
              pivot ~q:!q ~r ~theta;
              dual ()
            end
          end
        end
      end
    in
    match dual () with
    | `Give_up ->
        t.valid <- false;
        cold ()
    | `Infeasible col ->
        Infeasible_col { basis = Array.copy t.basis; col }
    | `Primal_feasible -> phase2 ()
  in
  let run () = if t.valid then warm () else cold () in
  match run () with
  | Optimal_basis _ as r ->
      flush ();
      r
  | r ->
      t.valid <- false;
      flush ();
      r
  | exception Stop r ->
      t.valid <- false;
      flush ();
      r
  | exception e ->
      t.valid <- false;
      flush ();
      raise e
