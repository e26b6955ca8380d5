type t = {
  n : int;
  m : int;
  m0 : int;
  first_art : int;
  ncols : int;
  cols : (int array * Rat.t array) array;
  obj : Rat.t array;
  slack_sign : int array;
  slack_col : int array;
  ub_var : int array;
  ub_row : int array;
  rows : Problem.snapshot;
}

let make (s : Problem.snapshot) =
  let n = s.n in
  let m0 = s.m in
  let ub_vars = ref [] in
  for i = n - 1 downto 0 do
    if s.ub.(i) <> None then ub_vars := i :: !ub_vars
  done;
  let ub_var = Array.of_list !ub_vars in
  let n_ub = Array.length ub_var in
  let m = m0 + n_ub in
  let ub_row = Array.make n (-1) in
  Array.iteri (fun k v -> ub_row.(v) <- m0 + k) ub_var;
  let slack_sign = Array.make m 0 in
  let slack_col = Array.make m (-1) in
  (* Slack columns in row order; upper-bound rows are all [Le]. *)
  let next = ref n in
  for r = 0 to m - 1 do
    let sign =
      if r >= m0 then 1
      else
        match s.cmp.(r) with Problem.Le -> 1 | Problem.Ge -> -1 | Problem.Eq -> 0
    in
    slack_sign.(r) <- sign;
    if sign <> 0 then begin
      slack_col.(r) <- !next;
      incr next
    end
  done;
  let first_art = !next in
  (* Each column's (row, coef) entries in ascending row order: count
     them, then fill. *)
  let len = Array.make first_art 0 in
  let each_entry f =
    for r = 0 to m - 1 do
      if r >= m0 then f ub_var.(r - m0) r Rat.one
      else
        for k = s.row_start.(r) to s.row_start.(r + 1) - 1 do
          f s.term_var.(k) r s.term_coef.(k)
        done;
      if slack_col.(r) >= 0 then
        f slack_col.(r) r (if slack_sign.(r) > 0 then Rat.one else Rat.minus_one)
    done
  in
  each_entry (fun j _ _ -> len.(j) <- len.(j) + 1);
  let cols = Array.map (fun k -> (Array.make k 0, Array.make k Rat.zero)) len in
  Array.fill len 0 first_art 0;
  each_entry (fun j r c ->
      let ri, vs = cols.(j) in
      ri.(len.(j)) <- r;
      vs.(len.(j)) <- c;
      len.(j) <- len.(j) + 1);
  let obj = Array.make first_art Rat.zero in
  Array.blit s.obj 0 obj 0 n;
  {
    n;
    m;
    m0;
    first_art;
    ncols = first_art + m;
    cols;
    obj;
    slack_sign;
    slack_col;
    ub_var;
    ub_row;
    rows = s;
  }

type rhs_result = Rhs of Rat.t array | Crossed | Mismatch

exception Bad of rhs_result

let rhs t ~lb ~ub =
  try
    if Array.length lb <> t.n || Array.length ub <> t.n then raise (Bad Mismatch);
    for v = 0 to t.n - 1 do
      match ub.(v) with
      | None -> if t.ub_row.(v) >= 0 then raise (Bad Mismatch)
      | Some u ->
          if t.ub_row.(v) < 0 then raise (Bad Mismatch);
          if Rat.lt u lb.(v) then raise (Bad Crossed)
    done;
    let b = Array.make t.m Rat.zero in
    let s = t.rows in
    for r = 0 to t.m0 - 1 do
      b.(r) <- Rat.sub s.Problem.rhs.(r) (Problem.row_value s r lb)
    done;
    for k = 0 to Array.length t.ub_var - 1 do
      let v = t.ub_var.(k) in
      let u = match ub.(v) with Some u -> u | None -> assert false in
      b.(t.m0 + k) <- Rat.sub u lb.(v)
    done;
    Rhs b
  with Bad r -> r

let col t j = if j < t.first_art then Some t.cols.(j) else None
