(* {2 Rational recovery}

   The float pass's basic values and duals are read back as rationals:
   each float becomes the first continued-fraction convergent [p/q]
   within [recover_tol] of it (relative above 1).  The bounds keep
   every recovered value in {!Rat}'s native arm.  Nothing here is
   trusted — a wrong guess only fails the exact checks below. *)
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

type outcome =
  | Cert_optimal of { objective : Rat.t; values : Rat.t array }
  | Cert_infeasible
  | Cert_fail

exception Reject

(* [y·A_j] for every variable [j], summed row-wise. *)
let price (s : Problem.snapshot) y =
  let g = Array.make s.n Rat.zero in
  for r = 0 to s.m - 1 do
    let yr = y.(r) in
    if not (Rat.is_zero yr) then
      for k = s.row_start.(r) to s.row_start.(r + 1) - 1 do
        let v = s.term_var.(k) in
        g.(v) <- Rat.add g.(v) (Rat.mul yr s.term_coef.(k))
      done
  done;
  g

(* {2 The optimal certificate}

   [x] holds the variables, then each row's logical.  Every row must
   hold exactly with its logical, every value lie in its box, and every
   reduced cost [d_j = c_j - y·A_j] be positive only at [lb_j] and
   negative only at a finite [ub_j].  A logical has cost 0 and column
   [σ_r·e_r], so its reduced cost is [-σ_r·y_r]; its box is [0, ∞), or
   [0, 0] on an [Eq] row, where either sign passes. *)
let optimal (s : Problem.snapshot) ~basis ~at_upper ~xb ~y =
  let n = s.n in
  let x = Array.make (n + s.m) Rat.zero in
  for j = 0 to n - 1 do
    x.(j) <-
      (if not at_upper.(j) then s.lb.(j)
       else match s.ub.(j) with Some u -> u | None -> raise Reject)
  done;
  Array.iteri (fun r j -> x.(j) <- (if j < n then Rat.add s.lb.(j) xb.(r) else xb.(r))) basis;
  for j = 0 to n - 1 do
    if Rat.lt x.(j) s.lb.(j) then raise Reject;
    match s.ub.(j) with Some u when Rat.gt x.(j) u -> raise Reject | _ -> ()
  done;
  let g = price s y in
  for j = 0 to n - 1 do
    let d = Rat.sign (Rat.sub s.obj.(j) g.(j)) in
    if d > 0 && not (Rat.equal x.(j) s.lb.(j)) then raise Reject;
    if d < 0 then
      match s.ub.(j) with Some u when Rat.equal x.(j) u -> () | _ -> raise Reject
  done;
  for r = 0 to s.m - 1 do
    let l = x.(n + r) and ge = s.cmp.(r) = Problem.Ge in
    let lhs = Problem.row_value s r x in
    if not (Rat.equal (if ge then Rat.sub lhs l else Rat.add lhs l) s.rhs.(r)) then raise Reject;
    if s.cmp.(r) = Problem.Eq then begin
      if not (Rat.is_zero l) then raise Reject
    end
    else begin
      (* the sign of [-σ_r·y_r] *)
      let d = if ge then Rat.sign y.(r) else -Rat.sign y.(r) in
      if Rat.sign l < 0 || d < 0 || (d > 0 && not (Rat.is_zero l)) then raise Reject
    end
  done;
  let values = Array.sub x 0 n in
  Cert_optimal { objective = Problem.obj_value s values; values }

(* {2 The infeasibility certificate}

   [y·b] below the least [y·A·x] over the box.  A logical's [g] is
   [σ_r·y_r]; with upper bound ∞ it must not be negative, and with its
   lower bound 0 it adds nothing. *)
let infeasible (s : Problem.snapshot) y =
  let g = price s y in
  let least = ref Rat.zero in
  for j = 0 to s.n - 1 do
    let gj = g.(j) in
    let sg = Rat.sign gj in
    if sg < 0 then
      match s.ub.(j) with
      | Some u -> least := Rat.add !least (Rat.mul gj u)
      | None -> raise Reject
    else if sg > 0 then least := Rat.add !least (Rat.mul gj s.lb.(j))
  done;
  let yb = ref Rat.zero in
  for r = 0 to s.m - 1 do
    (* the sign of [σ_r·y_r] *)
    let g = if s.cmp.(r) = Problem.Ge then -Rat.sign y.(r) else Rat.sign y.(r) in
    if s.cmp.(r) <> Problem.Eq && g < 0 then raise Reject;
    if not (Rat.is_zero y.(r)) then yb := Rat.add !yb (Rat.mul y.(r) s.rhs.(r))
  done;
  Rat.lt !yb !least

let check ?(metrics = Svutil.Metrics.nop) s = function
  | Fsimplex.Optimal { basis; at_upper; xb; y } -> (
      match (recover_all xb, recover_all y) with
      | Some xb, Some y -> (
          match optimal s ~basis ~at_upper ~xb ~y with
          | o ->
              Svutil.Metrics.tick metrics "certify.accepts";
              o
          | exception Reject -> Cert_fail)
      | _ -> Cert_fail)
  | Fsimplex.Infeasible { y } -> (
      match recover_all y with
      | Some y when (try infeasible s y with Reject -> false) -> Cert_infeasible
      | _ -> Cert_fail)
  | Fsimplex.Stalled -> Cert_fail
