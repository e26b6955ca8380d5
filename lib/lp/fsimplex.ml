(* Numerical tolerances.  The float pass only proposes bases — every
   acceptance decision is re-made exactly by Certify — so these trade
   pivot count against fallback rate, not correctness. *)
let dual_tol = 1e-7 (* reduced costs this far on the wrong side still pass *)
let pivot_tol = 1e-8 (* smallest pivot element we will divide by *)
let feas_tol = 1e-7 (* basic values this far outside their bounds still pass *)
let drop_tol = 1e-12 (* eta entries below this are dropped as zero *)
let deadline_poll_mask = 31
let iteration_cap = 10_000

type eta = { er : int; pr : float; idx : int array; vals : float array }

type point = { xb : float array; y : float array }

type outcome =
  | Optimal_basis of { basis : int array; point : point }
  | Infeasible_col of { basis : int array; col : int }
  | Stalled

(* The pass works on the layout's constraint rows only.  Columns keep
   their {!Sform} indices: structurals, then the constraint rows'
   slacks (the bound rows' slacks are never touched), then one
   artificial per row, the logical of an [Eq] row, fixed at 0.  Sform
   numbers slacks in row order, constraint rows first, so the columns
   that may enter are exactly [0 .. nact-1].

   The constraint rows' entries of the columns [j < first_art] are laid
   out flat twice: by column (rows ascending), for FTRAN and
   refactorization, and by row (columns ascending), for pricing. *)
type t = {
  sf : Sform.t;
  m : int;  (* constraint rows *)
  nact : int;  (* columns that may enter: structurals, row slacks *)
  cstart : int array;  (* column [j]'s entries are [cstart.(j) .. cstart.(j+1)-1] *)
  crow : int array;
  cval : float array;
  rstart : int array;  (* row [i]'s entries are [rstart.(i) .. rstart.(i+1)-1] *)
  rcol : int array;
  rval : float array;
  fobj : float array;  (* cost over j < first_art *)
  up : float array;  (* per column: upper bound (infinity when none) *)
  d : float array;  (* per column: reduced cost, updated in place *)
  at_up : bool array;  (* per nonbasic column: sits at its upper bound *)
  basis : int array;  (* row -> basic column *)
  inb : bool array;  (* per column: currently basic? *)
  xb : float array;  (* basic values, by row *)
  mutable etas : eta array;
  mutable n_etas : int;
  mutable valid : bool;  (* basis, etas and [d] are dual feasible *)
  (* scratch, sized once *)
  w : float array;  (* FTRANed column *)
  rho : float array;  (* BTRANed row, then duals *)
  alpha : float array;  (* per column: entry of the priced row; 0 unless touched *)
  touched : int array;  (* the columns the last pricing reached *)
  mutable n_touched : int;
  seen : bool array;  (* per column: in [touched] *)
  cand : int array;  (* ratio-test candidates *)
}

let create (sf : Sform.t) =
  let m = sf.Sform.m0 and first_art = sf.Sform.first_art in
  (* every bound row has a slack, numbered after the constraint rows' *)
  let nact = first_art - Array.length sf.Sform.ub_var in
  (* Count, then fill: each column's constraint-row entries lead it. *)
  let cstart = Array.make (first_art + 1) 0 and rstart = Array.make (m + 1) 0 in
  for j = 0 to first_art - 1 do
    let ri = fst sf.Sform.cols.(j) in
    let k = ref 0 in
    while !k < Array.length ri && ri.(!k) < m do
      rstart.(ri.(!k) + 1) <- rstart.(ri.(!k) + 1) + 1;
      incr k
    done;
    cstart.(j + 1) <- cstart.(j) + !k
  done;
  for i = 0 to m - 1 do
    rstart.(i + 1) <- rstart.(i + 1) + rstart.(i)
  done;
  let nnz = cstart.(first_art) in
  let crow = Array.make nnz 0 and cval = Array.make nnz 0. in
  let rcol = Array.make nnz 0 and rval = Array.make nnz 0. in
  let next = Array.copy rstart in
  for j = 0 to first_art - 1 do
    let ri, vs = sf.Sform.cols.(j) in
    for k = 0 to cstart.(j + 1) - cstart.(j) - 1 do
      let p = cstart.(j) + k and i = ri.(k) in
      let v = Rat.to_float vs.(k) in
      crow.(p) <- i;
      cval.(p) <- v;
      rcol.(next.(i)) <- j;
      rval.(next.(i)) <- v;
      next.(i) <- next.(i) + 1
    done
  done;
  let ncols = sf.Sform.ncols in
  let up = Array.make ncols infinity in
  Array.fill up first_art m 0.;
  {
    sf;
    m;
    nact;
    cstart;
    crow;
    cval;
    rstart;
    rcol;
    rval;
    fobj = Array.map Rat.to_float sf.Sform.obj;
    up;
    d = Array.make ncols 0.;
    at_up = Array.make ncols false;
    basis = Array.make m (-1);
    inb = Array.make ncols false;
    xb = Array.make m 0.;
    etas = [||];
    n_etas = 0;
    valid = false;
    w = Array.make m 0.;
    rho = Array.make m 0.;
    alpha = Array.make ncols 0.;
    touched = Array.make nact 0;
    n_touched = 0;
    seen = Array.make nact false;
    cand = Array.make nact 0;
  }

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
  for i = 0 to Array.length w - 1 do
    if i <> r && abs_float w.(i) > drop_tol then incr nnz
  done;
  let idx = Array.make !nnz 0 and vals = Array.make !nnz 0. in
  let k = ref 0 in
  for i = 0 to Array.length w - 1 do
    if i <> r && abs_float w.(i) > drop_tol then begin
      idx.(!k) <- i;
      vals.(!k) <- w.(i);
      incr k
    end
  done;
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

(* w += f * column j *)
let add_col t j f w =
  if j < t.sf.Sform.first_art then
    for p = t.cstart.(j) to t.cstart.(j + 1) - 1 do
      w.(t.crow.(p)) <- w.(t.crow.(p)) +. (f *. t.cval.(p))
    done
  else w.(j - t.sf.Sform.first_art) <- w.(j - t.sf.Sform.first_art) +. f

(* alpha := y A, pricing row by row: only [y]'s nonzero rows are read,
   in ascending order, so each column's entry is the same float sum as
   its column dot product with [y] (a zero term leaves a sum that
   starts at [+0.] unchanged).  The columns reached are listed in
   [touched]; every other column's entry is 0. *)
let price t y =
  for k = 0 to t.n_touched - 1 do
    let j = t.touched.(k) in
    t.alpha.(j) <- 0.;
    t.seen.(j) <- false
  done;
  let n = ref 0 in
  for i = 0 to t.m - 1 do
    let yi = y.(i) in
    if yi <> 0. then
      for p = t.rstart.(i) to t.rstart.(i + 1) - 1 do
        let j = t.rcol.(p) in
        if not t.seen.(j) then begin
          t.seen.(j) <- true;
          t.touched.(!n) <- j;
          incr n
        end;
        t.alpha.(j) <- t.alpha.(j) +. (t.rval.(p) *. yi)
      done
  done;
  t.n_touched <- !n

(* Load column [j] densely into [w] (zeroing it first). *)
let load_col t j w =
  Array.fill w 0 (Array.length w) 0.;
  add_col t j 1. w

(* {2 Refactorization}

   Rebuild the eta file for the current basis from scratch: greedily
   process the cheapest remaining column first (fewest nonzeros in the
   still-unpivoted rows — a Markowitz-style ordering that keeps fill-in
   low on the near-triangular bases these LPs produce), picking the
   largest available pivot element for stability.  Reassigns rows to
   columns, so [basis] is treated as a set. *)
let refactorize t =
  let m = t.m in
  let cols = Array.copy t.basis in
  let row_done = Array.make m false in
  let col_done = Array.make (Array.length cols) false in
  t.n_etas <- 0;
  let live_nnz j =
    let c = ref 0 in
    if j < t.sf.Sform.first_art then begin
      for p = t.cstart.(j) to t.cstart.(j + 1) - 1 do
        if not row_done.(t.crow.(p)) then incr c
      done
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

let refactor_threshold t = (4 * t.m) + 50

(* {2 Primal values and duals} *)

(* x_B = B^-1 (b - sum of the at-upper columns' A_j u_j), from scratch. *)
let recompute_xb t fb =
  Array.blit fb 0 t.xb 0 t.m;
  for j = 0 to t.nact - 1 do
    if (not t.inb.(j)) && t.at_up.(j) then add_col t j (-.t.up.(j)) t.xb
  done;
  ftran t t.xb

(* y = c_B B^-1 into [rho], and every active column's reduced cost. *)
let recompute_duals t =
  let first_art = t.sf.Sform.first_art in
  for i = 0 to t.m - 1 do
    let j = t.basis.(i) in
    t.rho.(i) <- (if j < first_art then t.fobj.(j) else 0.)
  done;
  btran t t.rho;
  price t t.rho;
  for j = 0 to t.nact - 1 do
    t.d.(j) <- (if t.inb.(j) then 0. else t.fobj.(j) -. t.alpha.(j))
  done

(* Move each boxed nonbasic column to the bound its reduced cost
   prefers.  A fixed column ([up = 0]) may carry either sign; it sits
   at the bound matching its sign, which moves no value but keeps the
   explicit pair of {!explicit} dual feasible.  True when some value
   moved. *)
let settle t =
  let moved = ref false in
  for j = 0 to t.nact - 1 do
    if (not t.inb.(j)) && t.up.(j) < infinity then begin
      let dj = t.d.(j) in
      let want =
        if t.up.(j) = 0. then dj < 0.
        else if dj < -.dual_tol then true
        else if dj > dual_tol then false
        else t.at_up.(j)
      in
      if want <> t.at_up.(j) then begin
        t.at_up.(j) <- want;
        if t.up.(j) > 0. then moved := true
      end
    end
  done;
  !moved

(* {2 The explicit layout}

   {!Certify} checks bases of {!Sform}'s explicit layout, where every
   upper bound is a row [x_v + s = u].  A column at its upper bound
   becomes basic in its bound row at [u], and that row's dual is the
   column's reduced cost; otherwise the bound row's slack is basic at
   [u - x_v] with dual 0.  [at_upper v] says where nonbasic [v] is
   presented. *)
let explicit_basis t ~at_upper =
  let sf = t.sf in
  let b = Array.make sf.Sform.m (-1) in
  Array.blit t.basis 0 b 0 t.m;
  Array.iteri
    (fun k v ->
      let r = sf.Sform.m0 + k in
      b.(r) <- (if (not t.inb.(v)) && at_upper v then v else sf.Sform.slack_col.(r)))
    sf.Sform.ub_var;
  b

(* The explicit basis and its float pair, after [recompute_xb] and
   [recompute_duals].  Every bound row holds [u] unless its column is
   basic, which leaves [u - x] to the row's slack. *)
let explicit t =
  let sf = t.sf in
  let basis = explicit_basis t ~at_upper:(fun v -> t.at_up.(v)) in
  let xb = Array.make sf.Sform.m 0. and y = Array.make sf.Sform.m 0. in
  Array.blit t.xb 0 xb 0 t.m;
  Array.blit t.rho 0 y 0 t.m;
  Array.iteri
    (fun k v ->
      let r = sf.Sform.m0 + k in
      xb.(r) <- t.up.(v);
      if basis.(r) = v then y.(r) <- t.d.(v))
    sf.Sform.ub_var;
  for i = 0 to t.m - 1 do
    let j = t.basis.(i) in
    if j < sf.Sform.n && sf.Sform.ub_row.(j) >= 0 then
      xb.(sf.Sform.ub_row.(j)) <- t.up.(j) -. t.xb.(i)
  done;
  Optimal_basis { basis; point = ({ xb; y } : point) }

(* {2 Solve} *)

exception Stall

(* The Farkas hint for row [r], whose basic column [p] lies below 0
   ([s = 1]) or above its upper bound ([s = -1]) and admits no entering
   column: the row of [B^-1 A] then proves infeasibility once every
   boxed nonbasic column is presented at the bound its entry favours.
   In the explicit layout the certificate row is [p]'s own when [p] is
   below 0 and [p]'s bound-row slack when it is above [u].  An [Eq]
   row's artificial above 0 would need the negated row, which
   {!Certify.check_farkas} does not take: that case stalls. *)
let farkas t ~r ~s =
  let sf = t.sf in
  let p = t.basis.(r) in
  let col =
    if s > 0. then p
    else if p < sf.Sform.n && sf.Sform.ub_row.(p) >= 0 then
      sf.Sform.slack_col.(sf.Sform.ub_row.(p))
    else -1
  in
  if col < 0 then Stalled
  else
    let at_upper v =
      let sa = s *. t.alpha.(v) in
      if sa < 0. then true else if sa > 0. then false else t.at_up.(v)
    in
    Infeasible_col { basis = explicit_basis t ~at_upper; col }

(* Dual slack of nonbasic [j]: its reduced cost's distance from the
   wrong sign for the bound it sits at ([Float.max 0.], NaN included,
   written so that it inlines and its result stays unboxed). *)
let[@inline] dual_slack t j =
  let x = if t.at_up.(j) then -.t.d.(j) else t.d.(j) in
  if x <= 0. then 0. else x

(* Bounded dual simplex from the current basis, which must be dual
   feasible with every nonbasic column at a bound.  Each iteration
   takes the basic value furthest outside its bounds, prices its row
   of [B^-1 A] and runs a Harris bound-flipping ratio test: candidates
   whose dual ratio is passed flip to their other bound while that
   still leaves the leaving value infeasible, and the entering column
   is the largest pivot among the first batch that would not. *)
let iterate t ~fb ~deadline ~pivots =
  let m = t.m in
  let iter = ref 0 in
  let rec loop () =
    if !iter land deadline_poll_mask = 0 then Svutil.Deadline.check deadline;
    incr iter;
    if !iter > iteration_cap then raise Stall;
    let r = ref (-1) and worst = ref feas_tol in
    for i = 0 to m - 1 do
      let x = t.xb.(i) in
      let viol = if x < 0. then -.x else x -. t.up.(t.basis.(i)) in
      if viol > !worst then begin
        worst := viol;
        r := i
      end
    done;
    if !r < 0 then begin
      (* Primal feasible: check the duals afresh before stopping. *)
      recompute_duals t;
      if settle t then begin
        recompute_xb t fb;
        loop ()
      end
      else `Optimal
    end
    else step !r !worst
  and step r delta =
    let p = t.basis.(r) in
    let s = if t.xb.(r) < 0. then 1. else -1. in
    Array.fill t.rho 0 m 0.;
    t.rho.(r) <- 1.;
    btran t t.rho;
    price t t.rho;
    let nc = ref 0 in
    for j = 0 to t.nact - 1 do
      if not t.inb.(j) then begin
        let sa = s *. t.alpha.(j) in
        if t.up.(j) > 0.
           && ((t.at_up.(j) && sa > pivot_tol) || ((not t.at_up.(j)) && sa < -.pivot_tol))
        then begin
          t.cand.(!nc) <- j;
          incr nc
        end
      end
    done;
    let nc = !nc in
    (* Batches in Harris order; [cand.(0 .. lo-1)] are flipped. *)
    let slope = ref delta and lo = ref 0 and q = ref (-1) in
    while !q < 0 && !lo < nc do
      let bound = ref infinity in
      for k = !lo to nc - 1 do
        let j = t.cand.(k) in
        let b = (dual_slack t j +. dual_tol) /. abs_float t.alpha.(j) in
        if b < !bound then bound := b
      done;
      let hi = ref !lo and cap = ref 0. in
      for k = !lo to nc - 1 do
        let j = t.cand.(k) in
        let a = abs_float t.alpha.(j) in
        if dual_slack t j /. a <= !bound then begin
          t.cand.(k) <- t.cand.(!hi);
          t.cand.(!hi) <- j;
          incr hi;
          cap := !cap +. (a *. t.up.(j))
        end
      done;
      let rest = !slope -. !cap in
      if !hi < nc && rest > 0. then begin
        slope := rest;
        lo := !hi
      end
      else if !hi = nc && rest > feas_tol then lo := nc
      else begin
        let best = ref 0. in
        for k = !lo to !hi - 1 do
          let j = t.cand.(k) in
          if abs_float t.alpha.(j) > !best then begin
            best := abs_float t.alpha.(j);
            q := j
          end
        done
      end
    done;
    if !q < 0 then `Infeasible (r, s)
    else begin
      let q = !q in
      (* bound flips, then the entering column *)
      if !lo > 0 then begin
        Array.fill t.w 0 m 0.;
        for k = 0 to !lo - 1 do
          let j = t.cand.(k) in
          add_col t j (if t.at_up.(j) then t.up.(j) else -.t.up.(j)) t.w;
          t.at_up.(j) <- not t.at_up.(j)
        done;
        ftran t t.w;
        for i = 0 to m - 1 do
          t.xb.(i) <- t.xb.(i) +. t.w.(i)
        done
      end;
      load_col t q t.w;
      ftran t t.w;
      let wr = t.w.(r) in
      if abs_float wr < pivot_tol then raise Stall;
      let aq = t.alpha.(q) in
      let theta_d = (if t.at_up.(q) then -.dual_slack t q else dual_slack t q) /. aq in
      (* A column [price] did not reach has alpha 0: its reduced cost
         stays. *)
      for k = 0 to t.n_touched - 1 do
        let j = t.touched.(k) in
        if not t.inb.(j) then t.d.(j) <- t.d.(j) -. (theta_d *. t.alpha.(j))
      done;
      t.d.(p) <- -.theta_d;
      t.d.(q) <- 0.;
      let target = if s > 0. then 0. else t.up.(p) in
      let theta_p = (t.xb.(r) -. target) /. wr in
      let xq = (if t.at_up.(q) then t.up.(q) else 0.) +. theta_p in
      for i = 0 to m - 1 do
        if t.w.(i) <> 0. then t.xb.(i) <- t.xb.(i) -. (theta_p *. t.w.(i))
      done;
      t.xb.(r) <- xq;
      push_eta t (eta_of_dense ~r t.w);
      t.inb.(p) <- false;
      t.at_up.(p) <- s < 0.;
      t.basis.(r) <- q;
      t.inb.(q) <- true;
      incr pivots;
      if t.n_etas > refactor_threshold t then begin
        if not (refactorize t) then raise Stall;
        recompute_xb t fb;
        recompute_duals t
      end;
      loop ()
    end
  in
  loop ()

(* The all-logical basis: slacks, and the artificial (fixed at 0) of
   each [Eq] row.  It is dual feasible when every negative-cost column
   has an upper bound to sit at; otherwise the pass stalls and the
   caller falls back to the exact solver. *)
let cold t fb =
  let sf = t.sf in
  t.n_etas <- 0;
  Array.fill t.inb 0 (Array.length t.inb) false;
  for r = 0 to t.m - 1 do
    let j =
      if sf.Sform.slack_col.(r) >= 0 then sf.Sform.slack_col.(r) else sf.Sform.first_art + r
    in
    t.basis.(r) <- j;
    t.inb.(j) <- true;
    if sf.Sform.slack_sign.(r) < 0 then push_eta t { er = r; pr = -1.; idx = [||]; vals = [||] }
  done;
  for j = 0 to t.nact - 1 do
    t.d.(j) <- (if t.inb.(j) then 0. else t.fobj.(j));
    if t.d.(j) < 0. && t.up.(j) = infinity then raise Stall;
    t.at_up.(j) <- t.d.(j) < 0.
  done;
  recompute_xb t fb

let solve ?(deadline = Svutil.Deadline.none) ?(metrics = Svutil.Metrics.nop) t
    ~rhs =
  let sf = t.sf in
  let fb = Array.init t.m (fun r -> Rat.to_float rhs.(r)) in
  Array.iteri (fun k v -> t.up.(v) <- Rat.to_float rhs.(sf.Sform.m0 + k)) sf.Sform.ub_var;
  let pivots = ref 0 in
  let run () =
    match iterate t ~fb ~deadline ~pivots with
    | `Optimal ->
        t.valid <- true;
        recompute_xb t fb;
        explicit t
    | `Infeasible (r, s) ->
        t.valid <- true;
        farkas t ~r ~s
  in
  (* Warm start: the basis and reduced costs of the previous solve stay
     dual feasible under new bounds, once every nonbasic column sits at
     the bound its reduced cost prefers. *)
  let warm () =
    ignore (settle t);
    recompute_xb t fb;
    run ()
  in
  let flush () = Svutil.Metrics.count metrics "simplex.hybrid.float_pivots" !pivots in
  match if t.valid then warm () else (cold t fb; run ()) with
  | r ->
      flush ();
      r
  | exception Stall ->
      t.valid <- false;
      flush ();
      Stalled
  | exception e ->
      t.valid <- false;
      flush ();
      raise e
