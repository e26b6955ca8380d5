(* Numerical tolerances.  The float pass only proposes bases — every
   acceptance decision is re-made exactly by Certify — so these trade
   pivot count against fallback rate, not correctness. *)
let dual_tol = 1e-7 (* reduced costs this far on the wrong side still pass *)
let pivot_tol = 1e-8 (* smallest pivot element we will divide by *)
let feas_tol = 1e-7 (* basic values this far outside their bounds still pass *)
let drop_tol = 1e-12 (* eta entries below this are dropped as zero *)
let deadline_poll_mask = 31
let iteration_cap = 10_000

type outcome =
  | Optimal of { basis : int array; at_upper : bool array; xb : float array; y : float array }
  | Infeasible of { y : float array }
  | Stalled

(* Columns: the [n] structurals, then the slack of each [Le]/[Ge] row
   in row order, then the logical of each [Eq] row, fixed at 0.  The
   columns that may enter are exactly [0 .. nact-1].

   Row [r] is stored multiplied by [sigma.(r)]: [-1] on a [Ge] row, [1]
   otherwise, so every logical's coefficient is [+1] and the
   all-logical basis is the identity.  With [D = diag sigma] the stored
   matrix is [D·[A | S]]: [B^-1 A], [x_B] and the reduced costs are
   those of the snapshot's own rows, and only the duals [y] carry [D],
   which [optimum] and the Farkas row take back off.

   The entries of the columns [j < nact] are laid out flat twice: by
   column (rows ascending), for FTRAN and refactorization, and by row
   (columns ascending), for pricing.  An [Eq] row's logical is an
   implicit unit column.

   The eta file is one pool: eta [k] pivots on row [eta_row.(k)] with
   element [eta_piv.(k)], and its other entries are the pool positions
   [eta_start.(k) .. eta_start.(k+1)-1] of [eta_idx] / [eta_val]. *)
type t = {
  n : int;  (* structurals *)
  m : int;  (* rows *)
  nact : int;  (* columns that may enter: structurals, row slacks *)
  logical : int array;  (* per row: its logical's column *)
  col_row : int array;  (* per column [n + k]: the row it is the logical of *)
  cstart : int array;  (* column [j]'s entries are [cstart.(j) .. cstart.(j+1)-1] *)
  crow : int array;
  cval : float array;
  rstart : int array;  (* row [i]'s entries are [rstart.(i) .. rstart.(i+1)-1] *)
  rcol : int array;
  rval : float array;
  sigma : float array;  (* per row: the sign it is stored with *)
  frhs : float array;  (* per row: its stored right-hand side *)
  fobj : float array;  (* cost over j < nact *)
  up : float array;  (* per column: upper bound (infinity when none) *)
  d : float array;  (* per column: reduced cost, updated in place *)
  at_up : bool array;  (* per nonbasic column: sits at its upper bound *)
  basis : int array;  (* row -> basic column *)
  inb : bool array;  (* per column: currently basic? *)
  xb : float array;  (* basic values, by row *)
  fb : float array;  (* per row: stored right-hand side shifted by the bounds *)
  mutable eta_row : int array;
  mutable eta_piv : float array;
  mutable eta_start : int array;  (* [n_etas + 1] offsets into the pool *)
  mutable eta_idx : int array;
  mutable eta_val : float array;
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

let create (s : Problem.snapshot) =
  let n = s.n and m = s.m in
  let logical = Array.make m (-1) in
  let next = ref n in
  for r = 0 to m - 1 do
    if s.cmp.(r) <> Problem.Eq then begin
      logical.(r) <- !next;
      incr next
    end
  done;
  let nact = !next in
  for r = 0 to m - 1 do
    if logical.(r) < 0 then begin
      logical.(r) <- !next;
      incr next
    end
  done;
  let col_row = Array.make m 0 in
  Array.iteri (fun r j -> col_row.(j - n) <- r) logical;
  (* Count, then fill, in row order: each row's terms (variables
     ascending), then its slack. *)
  let cstart = Array.make (nact + 1) 0 and rstart = Array.make (m + 1) 0 in
  for k = 0 to s.row_start.(m) - 1 do
    let v = s.term_var.(k) in
    cstart.(v + 1) <- cstart.(v + 1) + 1
  done;
  for r = 0 to m - 1 do
    let slack = logical.(r) < nact in
    if slack then cstart.(logical.(r) + 1) <- 1;
    rstart.(r + 1) <- rstart.(r) + s.row_start.(r + 1) - s.row_start.(r) + Bool.to_int slack
  done;
  for j = 0 to nact - 1 do
    cstart.(j + 1) <- cstart.(j + 1) + cstart.(j)
  done;
  let nnz = cstart.(nact) in
  let crow = Array.make nnz 0 and cval = Array.make nnz 0. in
  let rcol = Array.make nnz 0 and rval = Array.make nnz 0. in
  let next = Array.sub cstart 0 nact in
  let put r j v p =
    crow.(next.(j)) <- r;
    cval.(next.(j)) <- v;
    next.(j) <- next.(j) + 1;
    rcol.(p) <- j;
    rval.(p) <- v
  in
  let sigma = Array.make m 1. and frhs = Array.make m 0. in
  for r = 0 to m - 1 do
    let sg = if s.cmp.(r) = Problem.Ge then -1. else 1. in
    sigma.(r) <- sg;
    (* [0. -. b], not [-. b]: a zero right-hand side stays [+0.]. *)
    let b = Rat.to_float s.rhs.(r) in
    frhs.(r) <- (if sg < 0. then 0. -. b else b);
    let p = rstart.(r) - s.row_start.(r) in
    for k = s.row_start.(r) to s.row_start.(r + 1) - 1 do
      put r s.term_var.(k) (sg *. Rat.to_float s.term_coef.(k)) (p + k)
    done;
    if logical.(r) < nact then put r logical.(r) 1. (rstart.(r + 1) - 1)
  done;
  let ncols = n + m in
  let up = Array.make ncols infinity in
  Array.fill up nact (ncols - nact) 0.;
  {
    n;
    m;
    nact;
    logical;
    col_row;
    cstart;
    crow;
    cval;
    rstart;
    rcol;
    rval;
    sigma;
    frhs;
    fobj = Array.init nact (fun j -> if j < n then Rat.to_float s.obj.(j) else 0.);
    up;
    d = Array.make ncols 0.;
    at_up = Array.make ncols false;
    basis = Array.make m (-1);
    inb = Array.make ncols false;
    xb = Array.make m 0.;
    fb = Array.make m 0.;
    eta_row = Array.make 16 0;
    eta_piv = Array.make 16 0.;
    eta_start = Array.make 17 0;
    eta_idx = Array.make (4 * m) 0;
    eta_val = Array.make (4 * m) 0.;
    n_etas = 0;
    valid = false;
    w = Array.make m 0.;
    rho = Array.make m 0.;
    alpha = Array.make nact 0.;
    touched = Array.make nact 0;
    n_touched = 0;
    seen = Array.make nact false;
    cand = Array.make nact 0;
  }

(* {2 Eta file} *)

(* Append the eta of FTRANed column [w] pivoting on row [r]: its pivot
   element and its other entries above the drop tolerance. *)
let push_eta t ~r w =
  let k = t.n_etas in
  if k = Array.length t.eta_row then begin
    let more = max 16 k in
    t.eta_row <- Array.append t.eta_row (Array.make more 0);
    t.eta_piv <- Array.append t.eta_piv (Array.make more 0.);
    t.eta_start <- Array.append t.eta_start (Array.make more 0)
  end;
  let p0 = t.eta_start.(k) in
  if p0 + t.m > Array.length t.eta_idx then begin
    let more = max t.m (Array.length t.eta_idx) in
    t.eta_idx <- Array.append t.eta_idx (Array.make more 0);
    t.eta_val <- Array.append t.eta_val (Array.make more 0.)
  end;
  let p = ref p0 in
  for i = 0 to t.m - 1 do
    if i <> r && abs_float w.(i) > drop_tol then begin
      t.eta_idx.(!p) <- i;
      t.eta_val.(!p) <- w.(i);
      incr p
    end
  done;
  t.eta_row.(k) <- r;
  t.eta_piv.(k) <- w.(r);
  t.eta_start.(k + 1) <- !p;
  t.n_etas <- k + 1

(* v := B^-1 v : apply etas oldest to newest. *)
let ftran t v =
  let start = t.eta_start and idx = t.eta_idx and vals = t.eta_val in
  for k = 0 to t.n_etas - 1 do
    let r = t.eta_row.(k) in
    let vr = v.(r) in
    if vr <> 0. then begin
      let p = vr /. t.eta_piv.(k) in
      v.(r) <- p;
      for q = start.(k) to start.(k + 1) - 1 do
        let i = idx.(q) in
        v.(i) <- v.(i) -. (vals.(q) *. p)
      done
    end
  done

(* y := y B^-1 (row form): apply etas newest to oldest. *)
let btran t y =
  let start = t.eta_start and idx = t.eta_idx and vals = t.eta_val in
  for k = t.n_etas - 1 downto 0 do
    let s = ref 0. in
    for q = start.(k) to start.(k + 1) - 1 do
      s := !s +. (vals.(q) *. y.(idx.(q)))
    done;
    let r = t.eta_row.(k) in
    y.(r) <- (y.(r) -. !s) /. t.eta_piv.(k)
  done

(* {2 Columns} *)

(* w += f * column j *)
let add_col t j f w =
  if j < t.nact then
    for p = t.cstart.(j) to t.cstart.(j + 1) - 1 do
      w.(t.crow.(p)) <- w.(t.crow.(p)) +. (f *. t.cval.(p))
    done
  else
    let r = t.col_row.(j - t.n) in
    w.(r) <- w.(r) +. f

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
    if j < t.nact then begin
      for p = t.cstart.(j) to t.cstart.(j + 1) - 1 do
        if not row_done.(t.crow.(p)) then incr c
      done
    end
    else if not row_done.(t.col_row.(j - t.n)) then incr c;
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
      push_eta t ~r:!r t.w;
      row_done.(!r) <- true;
      col_done.(k) <- true;
      t.basis.(!r) <- j
    done;
    true
  with Exit -> false

let refactor_threshold t = (4 * t.m) + 50

(* {2 Primal values and duals} *)

(* x_B = B^-1 (b - sum of the at-upper columns' A_j u_j), from scratch. *)
let recompute_xb t =
  Array.blit t.fb 0 t.xb 0 t.m;
  for j = 0 to t.nact - 1 do
    if (not t.inb.(j)) && t.at_up.(j) then add_col t j (-.t.up.(j)) t.xb
  done;
  ftran t t.xb

(* y = c_B B^-1 into [rho], and every active column's reduced cost. *)
let recompute_duals t =
  for i = 0 to t.m - 1 do
    let j = t.basis.(i) in
    t.rho.(i) <- (if j < t.nact then t.fobj.(j) else 0.)
  done;
  btran t t.rho;
  price t t.rho;
  for j = 0 to t.nact - 1 do
    t.d.(j) <- (if t.inb.(j) then 0. else t.fobj.(j) -. t.alpha.(j))
  done

(* Move each boxed nonbasic column to the bound its reduced cost
   prefers.  A fixed column ([up = 0]) sits at the bound matching its
   reduced cost's sign, which moves no value.  True when some value
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

(* {2 Solve} *)

exception Stall

(* The optimum, numbered by the snapshot and with the duals of its own
   rows, after [recompute_duals] and [recompute_xb]. *)
let optimum t =
  Optimal
    {
      basis = Array.map (fun j -> if j < t.n then j else t.n + t.col_row.(j - t.n)) t.basis;
      at_upper = Array.init t.n (fun j -> t.at_up.(j) && not t.inb.(j));
      xb = Array.copy t.xb;
      y = Array.mapi (fun r v -> t.sigma.(r) *. v) t.rho;
    }

(* A structural whose upper bound is gone since the last solve moves to
   0.  False when one of them prices below zero, so the basis is no
   longer dual feasible. *)
let unbox t =
  let ok = ref true in
  for j = 0 to t.n - 1 do
    if (not t.inb.(j)) && t.up.(j) = infinity then begin
      t.at_up.(j) <- false;
      if t.d.(j) < -.dual_tol then ok := false
    end
  done;
  !ok

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
let iterate t ~deadline ~pivots =
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
        recompute_xb t;
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
    (* Candidates among the columns pricing reached (every other
       column's alpha is 0), in ascending column order, as a scan of
       all columns would list them: ties go to the lowest index. *)
    let nc = ref 0 in
    for k = 0 to t.n_touched - 1 do
      let j = t.touched.(k) in
      if not t.inb.(j) then begin
        let sa = s *. t.alpha.(j) in
        if t.up.(j) > 0.
           && ((t.at_up.(j) && sa > pivot_tol) || ((not t.at_up.(j)) && sa < -.pivot_tol))
        then begin
          let i = ref !nc in
          while !i > 0 && t.cand.(!i - 1) > j do
            t.cand.(!i) <- t.cand.(!i - 1);
            decr i
          done;
          t.cand.(!i) <- j;
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
    if !q < 0 then `Infeasible s
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
      push_eta t ~r t.w;
      t.inb.(p) <- false;
      t.at_up.(p) <- s < 0.;
      t.basis.(r) <- q;
      t.inb.(q) <- true;
      incr pivots;
      if t.n_etas > refactor_threshold t then begin
        if not (refactorize t) then raise Stall;
        recompute_xb t;
        recompute_duals t
      end;
      loop ()
    end
  in
  loop ()

(* The all-logical basis: slacks, and the logical (fixed at 0) of each
   [Eq] row.  Every stored logical column is a unit column, so the basis
   is the identity and needs no eta.  It is dual feasible when every
   negative-cost column has an upper bound to sit at; otherwise the
   pass stalls and the caller falls back to the exact solver. *)
let cold t =
  t.n_etas <- 0;
  Array.fill t.inb 0 (Array.length t.inb) false;
  for r = 0 to t.m - 1 do
    let j = t.logical.(r) in
    t.basis.(r) <- j;
    t.inb.(j) <- true
  done;
  for j = 0 to t.nact - 1 do
    t.d.(j) <- (if t.inb.(j) then 0. else t.fobj.(j));
    if t.d.(j) < 0. && t.up.(j) = infinity then raise Stall;
    t.at_up.(j) <- t.d.(j) < 0.
  done;
  recompute_xb t

(* Shift the stored right-hand sides and the upper bounds by [lb], in
   floats: [fb = frhs - A lb] column by column, which subtracts each
   row's terms in ascending variable order. *)
let shift t ~lb ~ub =
  Array.blit t.frhs 0 t.fb 0 t.m;
  for j = 0 to t.n - 1 do
    let l = Rat.to_float lb.(j) in
    if l <> 0. then
      for p = t.cstart.(j) to t.cstart.(j + 1) - 1 do
        let r = t.crow.(p) in
        t.fb.(r) <- t.fb.(r) -. (t.cval.(p) *. l)
      done;
    t.up.(j) <- (match ub.(j) with None -> infinity | Some u -> Rat.to_float u -. l)
  done

let solve ?(deadline = Svutil.Deadline.none) ?(metrics = Svutil.Metrics.nop) t
    ~lb ~ub =
  shift t ~lb ~ub;
  let pivots = ref 0 in
  let run () =
    match iterate t ~deadline ~pivots with
    | `Optimal ->
        t.valid <- true;
        recompute_xb t;
        optimum t
    | `Infeasible s ->
        t.valid <- true;
        Infeasible { y = Array.mapi (fun r v -> s *. t.sigma.(r) *. v) t.rho }
  in
  (* Warm start: the basis and reduced costs of the previous solve stay
     dual feasible under new bounds, once every nonbasic column sits at
     the bound its reduced cost prefers — unless a column lost the
     upper bound it needed ([unbox]), which sends the pass back to the
     cold start. *)
  let warm () =
    ignore (settle t);
    recompute_xb t;
    run ()
  in
  let flush () = Svutil.Metrics.count metrics "simplex.hybrid.float_pivots" !pivots in
  match if t.valid && unbox t then warm () else (cold t; run ()) with
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
