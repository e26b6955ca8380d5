type cmp = Le | Ge | Eq

type snapshot = {
  n : int;
  lb : Rat.t array;
  ub : Rat.t option array;
  integer : bool array;
  obj : Rat.t array;
  m : int;
  row_start : int array;
  term_var : int array;
  term_coef : Rat.t array;
  cmp : cmp array;
  rhs : Rat.t array;
  name : int -> string;
}

(* Builder state: the snapshot's arrays with spare capacity at the end.
   [starts] holds [nrows + 1] offsets; the open row is
   [starts.(nrows) .. nnz - 1]. *)
type t = {
  mutable nv : int;
  mutable lbs : Rat.t array;
  mutable ubs : Rat.t option array;
  mutable ints : bool array;
  mutable costs : Rat.t array;
  mutable nrows : int;
  mutable starts : int array;
  mutable cmps : cmp array;
  mutable rhss : Rat.t array;
  mutable nnz : int;
  mutable vars : int array;
  mutable coefs : Rat.t array;
  mutable finished : bool;
}

let create ?(vars = 16) ?(rows = 16) ?(terms = 32) () =
  {
    nv = 0;
    lbs = Array.make vars Rat.zero;
    ubs = Array.make vars None;
    ints = Array.make vars false;
    costs = Array.make vars Rat.zero;
    nrows = 0;
    starts = Array.make (rows + 1) 0;
    cmps = Array.make rows Le;
    rhss = Array.make rows Rat.zero;
    nnz = 0;
    vars = Array.make terms 0;
    coefs = Array.make terms Rat.zero;
    finished = false;
  }

(* [a] with room for index [len]: doubled when full. *)
let room a len fill =
  if len < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let check_open t =
  if t.finished then invalid_arg "Problem: the builder already yielded its snapshot"

let add_var ?(lb = Rat.zero) ?ub ?(integer = false) t =
  check_open t;
  let i = t.nv in
  t.lbs <- room t.lbs i Rat.zero;
  t.ubs <- room t.ubs i None;
  t.ints <- room t.ints i false;
  t.costs <- room t.costs i Rat.zero;
  t.lbs.(i) <- lb;
  t.ubs.(i) <- ub;
  t.ints.(i) <- integer;
  t.nv <- i + 1;
  i

let check_var t v =
  if v < 0 || v >= t.nv then invalid_arg "Problem: unknown variable"

let set_cost t v c =
  check_open t;
  check_var t v;
  t.costs.(v) <- c

let add_term t v c =
  check_open t;
  check_var t v;
  t.vars <- room t.vars t.nnz 0;
  t.coefs <- room t.coefs t.nnz Rat.zero;
  t.vars.(t.nnz) <- v;
  t.coefs.(t.nnz) <- c;
  t.nnz <- t.nnz + 1

(* Close the open row: drop its zero coefficients and check that the
   rest come in strictly ascending variable order. *)
let close_row t cmp rhs =
  check_open t;
  let first = t.starts.(t.nrows) in
  let out = ref first in
  for k = first to t.nnz - 1 do
    let v = t.vars.(k) and c = t.coefs.(k) in
    if not (Rat.is_zero c) then begin
      if !out > first && t.vars.(!out - 1) >= v then
        invalid_arg "Problem.close_row: terms out of variable order";
      t.vars.(!out) <- v;
      t.coefs.(!out) <- c;
      incr out
    end
  done;
  t.nnz <- !out;
  let r = t.nrows in
  t.cmps <- room t.cmps r Le;
  t.rhss <- room t.rhss r Rat.zero;
  t.starts <- room t.starts (r + 1) 0;
  t.cmps.(r) <- cmp;
  t.rhss.(r) <- rhs;
  t.starts.(r + 1) <- t.nnz;
  t.nrows <- r + 1

let add_row t terms cmp rhs =
  List.iter (fun (v, c) -> add_term t v c) terms;
  close_row t cmp rhs

let default_name i = "x" ^ string_of_int i

let snapshot ?(name = default_name) t =
  check_open t;
  t.finished <- true;
  let fit a len = if Array.length a = len then a else Array.sub a 0 len in
  {
    n = t.nv;
    lb = fit t.lbs t.nv;
    ub = fit t.ubs t.nv;
    integer = fit t.ints t.nv;
    obj = fit t.costs t.nv;
    m = t.nrows;
    row_start = fit t.starts (t.nrows + 1);
    term_var = fit t.vars t.nnz;
    term_coef = fit t.coefs t.nnz;
    cmp = fit t.cmps t.nrows;
    rhs = fit t.rhss t.nrows;
    name;
  }

let with_bounds s ~lb ~ub = { s with lb; ub }

let relax s = { s with integer = Array.make s.n false }

let all_integer s = { s with integer = Array.make s.n true }

let var_name s i = s.name i

let row_value s r x =
  let acc = ref Rat.zero in
  for k = s.row_start.(r) to s.row_start.(r + 1) - 1 do
    let v = x.(s.term_var.(k)) in
    if not (Rat.is_zero v) then acc := Rat.add !acc (Rat.mul s.term_coef.(k) v)
  done;
  !acc

let obj_value s x =
  let acc = ref Rat.zero in
  for i = 0 to s.n - 1 do
    let c = s.obj.(i) in
    if not (Rat.is_zero c || Rat.is_zero x.(i)) then acc := Rat.add !acc (Rat.mul c x.(i))
  done;
  !acc

let pp_sum name fmt terms =
  if terms = [] then Format.pp_print_string fmt "0"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
      (fun fmt (v, c) -> Format.fprintf fmt "%s*%s" (Rat.to_string c) (name v))
      fmt terms

let pp fmt s =
  let costs =
    List.filter (fun (_, c) -> not (Rat.is_zero c)) (List.init s.n (fun v -> (v, s.obj.(v))))
  in
  Format.fprintf fmt "minimize %a@." (pp_sum s.name) costs;
  for r = 0 to s.m - 1 do
    let first = s.row_start.(r) in
    let terms =
      List.init (s.row_start.(r + 1) - first) (fun k ->
          (s.term_var.(first + k), s.term_coef.(first + k)))
    in
    let op = match s.cmp.(r) with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
    Format.fprintf fmt "  %a %s %s@." (pp_sum s.name) terms op (Rat.to_string s.rhs.(r))
  done;
  for i = 0 to s.n - 1 do
    Format.fprintf fmt "  %s <= %s%s%s@." (Rat.to_string s.lb.(i)) (s.name i)
      (match s.ub.(i) with None -> "" | Some u -> " <= " ^ Rat.to_string u)
      (if s.integer.(i) then " (int)" else "")
  done
