let repair_pivot_limit = 2_000
let deadline_poll_mask = 15

(* Product-form eta in exact rationals; [idx]/[vals] exclude the pivot
   row [er], whose multiplier is [pr]. *)
type reta = { er : int; pr : Rat.t; idx : int array; vals : Rat.t array }

(* {2 Exact FTRAN / BTRAN} *)

(* Apply the first [n] etas of the file to [v], oldest first. *)
let rftran_n etas n v =
  for k = 0 to n - 1 do
    let e = etas.(k) in
    let vr = v.(e.er) in
    if not (Rat.is_zero vr) then begin
      let p = Rat.div vr e.pr in
      v.(e.er) <- p;
      for i = 0 to Array.length e.idx - 1 do
        v.(e.idx.(i)) <- Rat.sub v.(e.idx.(i)) (Rat.mul e.vals.(i) p)
      done
    end
  done;
  v

let rftran etas v = rftran_n etas (Array.length etas) v

let rbtran etas y =
  for k = Array.length etas - 1 downto 0 do
    let e = etas.(k) in
    let s = ref Rat.zero in
    for i = 0 to Array.length e.idx - 1 do
      if not (Rat.is_zero y.(e.idx.(i))) then
        s := Rat.add !s (Rat.mul e.vals.(i) y.(e.idx.(i)))
    done;
    y.(e.er) <- Rat.div (Rat.sub y.(e.er) !s) e.pr
  done;
  y

(* {2 Columns of the standard form} *)

(* The artificial column of row [r] is [e_r]. *)
let load_col (sf : Sform.t) j v =
  Array.fill v 0 (Array.length v) Rat.zero;
  if j < sf.Sform.first_art then begin
    let ri, vs = sf.Sform.cols.(j) in
    for k = 0 to Array.length ri - 1 do
      v.(ri.(k)) <- vs.(k)
    done
  end
  else v.(j - sf.Sform.first_art) <- Rat.one

let col_dot (sf : Sform.t) y j =
  if j < sf.Sform.first_art then begin
    let ri, vs = sf.Sform.cols.(j) in
    let s = ref Rat.zero in
    for k = 0 to Array.length ri - 1 do
      if not (Rat.is_zero y.(ri.(k))) then
        s := Rat.add !s (Rat.mul vs.(k) y.(ri.(k)))
    done;
    !s
  end
  else y.(j - sf.Sform.first_art)

(* {2 Exact refactorization}

   Same Markowitz-style greedy as the float side — cheapest live column
   first, preferring unit pivot elements — but over rationals, where a
   unit pivot also means no coefficient growth.  Returns the row →
   column assignment and the eta file, or [None] for a singular column
   set. *)
let factorize ?(deadline = Svutil.Deadline.none) (sf : Sform.t) cols0 =
  let m = sf.Sform.m in
  let cols = Array.copy cols0 in
  let ebasis = Array.make m (-1) in
  let row_done = Array.make m false in
  let col_done = Array.make (Array.length cols) false in
  let dummy = { er = 0; pr = Rat.one; idx = [||]; vals = [||] } in
  let etas = Array.make (max m 1) dummy in
  let n_etas = ref 0 in
  let w = Array.make (max m 1) Rat.zero in
  let live_nnz j =
    if j >= sf.Sform.first_art then
      if row_done.(j - sf.Sform.first_art) then 0 else 1
    else begin
      let ri, _ = sf.Sform.cols.(j) in
      let c = ref 0 in
      Array.iter (fun r -> if not row_done.(r) then incr c) ri;
      !c
    end
  in
  let eta_of_dense r =
    let nnz = ref 0 in
    for i = 0 to m - 1 do
      if i <> r && not (Rat.is_zero w.(i)) then incr nnz
    done;
    let idx = Array.make !nnz 0 and vals = Array.make !nnz Rat.zero in
    let k = ref 0 in
    for i = 0 to m - 1 do
      if i <> r && not (Rat.is_zero w.(i)) then begin
        idx.(!k) <- i;
        vals.(!k) <- w.(i);
        incr k
      end
    done;
    { er = r; pr = w.(r); idx; vals }
  in
  let is_unit v = Rat.equal v Rat.one || Rat.equal v Rat.minus_one in
  try
    for step = 0 to m - 1 do
      if step land deadline_poll_mask = 0 then Svutil.Deadline.check deadline;
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
      let j = cols.(!pick) in
      load_col sf j w;
      ignore (rftran_n etas !n_etas w);
      let r = ref (-1) in
      (try
         for i = 0 to m - 1 do
           if (not row_done.(i)) && not (Rat.is_zero w.(i)) then begin
             if !r < 0 then r := i;
             if is_unit w.(i) then begin
               r := i;
               raise Exit
             end
           end
         done
       with Exit -> ());
      if !r < 0 then raise Exit;
      etas.(!n_etas) <- eta_of_dense !r;
      incr n_etas;
      row_done.(!r) <- true;
      col_done.(!pick) <- true;
      ebasis.(!r) <- j
    done;
    Some (ebasis, Array.sub etas 0 !n_etas)
  with Exit -> None

(* {2 Rational recovery}

   The float pass's basic values and duals are read back as rationals:
   each float becomes the first continued-fraction convergent [p/q]
   within [recover_tol] of it (relative above 1).  The bounds keep
   every recovered value in {!Rat}'s native arm.  Nothing here is
   trusted — a wrong guess only fails the exact check below. *)
let max_den = 1 lsl 20
let max_num = 1 lsl 30
let recover_tol = 1e-9

let recover f =
  let af = Float.abs f in
  if not (af < float_of_int max_num) then None
  else begin
    let tol = recover_tol *. Float.max 1. af in
    (* [p1/q1] is the latest convergent, [p0/q0] the one before. *)
    let rec go x p1 q1 p0 q0 =
      if q1 > 0 && x >= float_of_int max_den then None
      else begin
        let a = Float.to_int (Float.floor x) in
        let p = (a * p1) + p0 and q = (a * q1) + q0 in
        if q >= max_den || p >= max_num then None
        else if Float.abs (af -. (float_of_int p /. float_of_int q)) <= tol then
          Some (Rat.of_ints (if f < 0. then -p else p) q)
        else go (1. /. (x -. Float.floor x)) p q p1 q1
      end
    in
    go af 1 0 0 1
  end

let recover_all a =
  let out = Array.make (Array.length a) Rat.zero in
  try
    Array.iteri
      (fun i f ->
        match recover f with Some r -> out.(i) <- r | None -> raise Exit)
      a;
    Some out
  with Exit -> None

(* {2 The optimality check}

   [xb] (by row: the value of row [r]'s basic column) and [y] certify
   the basis optimal iff [B x_B = b], [x_B >= 0] with every basic
   artificial at zero, and the reduced cost [c_j - y A_j] of every
   structural or slack column is zero when basic and non-negative
   otherwise.  Then [x] is feasible, [y] is dual feasible and
   complementary slackness gives [c x = y b]: LP duality proves [x]
   optimal, whatever the basis matrix looks like. *)
let pair_ok (sf : Sform.t) ~rhs ~basis ~xb ~y =
  let first_art = sf.Sform.first_art in
  let res = Array.copy rhs in
  let inb = Array.make first_art false in
  try
    Array.iteri
      (fun r j ->
        let v = xb.(r) in
        if Rat.sign v < 0 then raise Exit;
        if j >= first_art then begin
          if not (Rat.is_zero v) then raise Exit
        end
        else begin
          inb.(j) <- true;
          if not (Rat.is_zero v) then begin
            let ri, vs = sf.Sform.cols.(j) in
            for k = 0 to Array.length ri - 1 do
              res.(ri.(k)) <- Rat.sub res.(ri.(k)) (Rat.mul vs.(k) v)
            done
          end
        end)
      basis;
    if not (Array.for_all Rat.is_zero res) then raise Exit;
    for j = 0 to first_art - 1 do
      let d = Rat.sub sf.Sform.obj.(j) (col_dot sf y j) in
      let s = Rat.sign d in
      if s < 0 || (s > 0 && inb.(j)) then raise Exit
    done;
    true
  with Exit -> false

type outcome =
  | Cert_optimal of { objective : Rat.t; values : Rat.t array; repaired : bool }
  | Cert_infeasible
  | Cert_unbounded
  | Cert_fail

let extract sf ~lb ~basis ~xb ~repaired =
  let values = Array.copy lb in
  Array.iteri
    (fun r j -> if j < sf.Sform.n then values.(j) <- Rat.add values.(j) xb.(r))
    basis;
  Cert_optimal { objective = Problem.obj_value sf.Sform.rows values; values; repaired }

(* {2 Exact repair}

   When the factorized basis fails the check, build the full exact
   tableau once and run a short Bland-rule cleanup — dual pivots while
   basic values are negative, then primal pivots while reduced costs
   are.  Everything stays exact, so a successful cleanup yields a
   certified optimum (or an exact infeasibility/unboundedness
   certificate); budget exhaustion reports {!Cert_fail}. *)
let repair ?(deadline = Svutil.Deadline.none) sf ~basis ~etas ~lb ~xb =
  let m = sf.Sform.m in
  let ncols = sf.Sform.ncols in
  let first_art = sf.Sform.first_art in
  let basis = Array.copy basis in
  let b = Array.copy xb in
  let a = Array.init m (fun _ -> Array.make ncols Rat.zero) in
  let v = Array.make m Rat.zero in
  let row_of = Array.make ncols (-1) in
  Array.iteri (fun r j -> row_of.(j) <- r) basis;
  for j = 0 to ncols - 1 do
    if j land deadline_poll_mask = 0 then Svutil.Deadline.check deadline;
    if row_of.(j) >= 0 then a.(row_of.(j)).(j) <- Rat.one
    else begin
      load_col sf j v;
      ignore (rftran etas v);
      for i = 0 to m - 1 do
        a.(i).(j) <- v.(i)
      done
    end
  done;
  let obj_ext j = if j < first_art then sf.Sform.obj.(j) else Rat.zero in
  let rc = Array.init ncols obj_ext in
  for i = 0 to m - 1 do
    let cb = obj_ext basis.(i) in
    if not (Rat.is_zero cb) then begin
      let ai = a.(i) in
      for j = 0 to ncols - 1 do
        if not (Rat.is_zero ai.(j)) then rc.(j) <- Rat.sub rc.(j) (Rat.mul cb ai.(j))
      done
    end
  done;
  let pivots = ref 0 in
  let pivot ~row ~col =
    incr pivots;
    if !pivots land deadline_poll_mask = 0 then Svutil.Deadline.check deadline;
    let arow = a.(row) in
    let pv = arow.(col) in
    if not (Rat.equal pv Rat.one) then begin
      for j = 0 to ncols - 1 do
        if not (Rat.is_zero arow.(j)) then arow.(j) <- Rat.div arow.(j) pv
      done;
      b.(row) <- Rat.div b.(row) pv
    end;
    for i = 0 to m - 1 do
      if i <> row then begin
        let ai = a.(i) in
        let f = ai.(col) in
        if not (Rat.is_zero f) then begin
          for j = 0 to ncols - 1 do
            if not (Rat.is_zero arow.(j)) then
              ai.(j) <- Rat.sub ai.(j) (Rat.mul f arow.(j))
          done;
          b.(i) <- Rat.sub b.(i) (Rat.mul f b.(row))
        end
      end
    done;
    let f = rc.(col) in
    if not (Rat.is_zero f) then
      for j = 0 to ncols - 1 do
        if not (Rat.is_zero arow.(j)) then
          rc.(j) <- Rat.sub rc.(j) (Rat.mul f arow.(j))
      done;
    basis.(row) <- col
  in
  let exception Done of outcome in
  try
    (* Dual pivots (Bland in the dual): require dual feasibility. *)
    let dual_needed = Array.exists (fun v -> Rat.sign v < 0) b in
    if dual_needed then begin
      let dual_ok =
        let bad = ref false in
        let inb = Array.make ncols false in
        Array.iter (fun j -> inb.(j) <- true) basis;
        for j = 0 to first_art - 1 do
          if (not inb.(j)) && Rat.sign rc.(j) < 0 then bad := true
        done;
        not !bad
      in
      if not dual_ok then raise (Done Cert_fail);
      let continue_ = ref true in
      while !continue_ do
        if !pivots > repair_pivot_limit then raise (Done Cert_fail);
        let row = ref (-1) in
        for i = 0 to m - 1 do
          if Rat.sign b.(i) < 0 && (!row < 0 || basis.(i) < basis.(!row)) then
            row := i
        done;
        if !row < 0 then continue_ := false
        else begin
          let arow = a.(!row) in
          let col = ref (-1) and best = ref Rat.zero in
          for j = 0 to first_art - 1 do
            if Rat.sign arow.(j) < 0 then begin
              let ratio = Rat.div rc.(j) (Rat.neg arow.(j)) in
              if !col < 0 || Rat.lt ratio !best
                 || (Rat.equal ratio !best && j < !col)
              then begin
                col := j;
                best := ratio
              end
            end
          done;
          if !col < 0 then raise (Done Cert_infeasible);
          pivot ~row:!row ~col:!col
        end
      done
    end;
    (* Primal pivots (Bland): now [b >= 0]. *)
    let continue_ = ref true in
    while !continue_ do
      if !pivots > repair_pivot_limit then raise (Done Cert_fail);
      let col = ref (-1) in
      (try
         for j = 0 to first_art - 1 do
           if Rat.sign rc.(j) < 0 then begin
             col := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !col < 0 then continue_ := false
      else begin
        let col = !col in
        let row = ref (-1) and best = ref Rat.zero in
        for i = 0 to m - 1 do
          if Rat.sign a.(i).(col) > 0 then begin
            let ratio = Rat.div b.(i) a.(i).(col) in
            if !row < 0 || Rat.lt ratio !best
               || (Rat.equal ratio !best && basis.(i) < basis.(!row))
            then begin
              row := i;
              best := ratio
            end
          end
        done;
        if !row < 0 then begin
          (* Unbounded ray — valid only if no basic artificial moves
             along it (their value must stay exactly zero). *)
          let art_moves = ref false in
          for i = 0 to m - 1 do
            if basis.(i) >= first_art && not (Rat.is_zero a.(i).(col)) then
              art_moves := true
          done;
          raise (Done (if !art_moves then Cert_fail else Cert_unbounded))
        end;
        pivot ~row:!row ~col
      end
    done;
    (* Final exact verification: non-negative basics, artificials at
       exactly zero. *)
    for i = 0 to m - 1 do
      if Rat.sign b.(i) < 0 then raise (Done Cert_fail);
      if basis.(i) >= first_art && not (Rat.is_zero b.(i)) then
        raise (Done Cert_fail)
    done;
    extract sf ~lb ~basis ~xb:b ~repaired:true
  with Done o -> o

let check ?(deadline = Svutil.Deadline.none) ?(metrics = Svutil.Metrics.nop)
    ?point (sf : Sform.t) ~rhs ~lb ~basis =
  let accept ~basis ~xb =
    Svutil.Metrics.tick metrics "certify.accepts";
    extract sf ~lb ~basis ~xb ~repaired:false
  in
  let recovered =
    match point with
    | Some { Fsimplex.xb; y }
      when Array.length xb = Array.length basis && Array.length y = sf.Sform.m
      -> (
        match (recover_all xb, recover_all y) with
        | Some xb, Some y -> Some (xb, y)
        | _ -> None)
    | _ -> None
  in
  match recovered with
  | Some (xb, y) when pair_ok sf ~rhs ~basis ~xb ~y -> accept ~basis ~xb
  | _ -> (
      (* No usable float point: the same check on the exact pair of a
         full factorization, then repair from there. *)
      Svutil.Metrics.tick metrics "certify.factorizations";
      match factorize ~deadline sf basis with
      | None -> Cert_fail
      | Some (basis, etas) -> (
          let xb = rftran etas (Array.copy rhs) in
          let y = Array.make sf.Sform.m Rat.zero in
          Array.iteri
            (fun i j -> if j < sf.Sform.first_art then y.(i) <- sf.Sform.obj.(j))
            basis;
          ignore (rbtran etas y);
          if pair_ok sf ~rhs ~basis ~xb ~y then accept ~basis ~xb
          else
            match repair ~deadline sf ~basis ~etas ~lb ~xb with
            | Cert_fail -> Cert_fail
            | o ->
                Svutil.Metrics.tick metrics "certify.repairs";
                o))

let check_farkas ?(deadline = Svutil.Deadline.none) (sf : Sform.t) ~rhs ~basis
    ~col =
  match factorize ~deadline sf basis with
  | None -> false
  | Some (ebasis, etas) -> (
      let k = ref (-1) in
      Array.iteri (fun r j -> if j = col then k := r) ebasis;
      if !k < 0 then false
      else begin
        let m = sf.Sform.m in
        let u = Array.make m Rat.zero in
        u.(!k) <- Rat.one;
        ignore (rbtran etas u);
        let dot_rhs = ref Rat.zero in
        for r = 0 to m - 1 do
          if not (Rat.is_zero u.(r)) then
            dot_rhs := Rat.add !dot_rhs (Rat.mul u.(r) rhs.(r))
        done;
        if Rat.sign !dot_rhs >= 0 then false
        else begin
          try
            for j = 0 to sf.Sform.first_art - 1 do
              if Rat.sign (col_dot sf u j) < 0 then
                raise Exit
            done;
            true
          with Exit -> false
        end
      end)
