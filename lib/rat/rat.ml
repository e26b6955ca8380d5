module B = Bigint

(* Invariant: the denominator is positive and coprime with the
   numerator, so an integer's is 1; zero is [0/1], and normalization
   ([norm_small], [make]) returns the shared [zero] for it.

   Two representations: [S (n, d)] keeps both parts in native ints when
   they are below [small_lim], [Q] falls back to {!Bigint}.  The
   representation is canonical — every value whose parts fit is an [S] —
   so structural equality still coincides with value equality.  The
   bound leaves headroom for exact native cross-products: with
   [|n|, d < 2^30], terms like [n1*d2 + n2*d1] stay below [2^61] and
   never overflow a 63-bit [int]. *)
type t = S of int * int | Q of { num : B.t; den : B.t }

let small_lim = 1 lsl 30
let fits n = n > -small_lim && n < small_lim

let zero = S (0, 1)
let one = S (1, 1)
let two = S (2, 1)
let minus_one = S (-1, 1)

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* Normalized value from a native fraction.  Callers guarantee [d <> 0]
   and both parts within [2^61], so sign flips and products below are
   exact.  Most sums and products in the LP layer are of integers, so
   denominator 1 skips the gcd. *)
let norm_small n d =
  if d = 1 then
    if n = 0 then zero
    else if fits n then S (n, 1)
    else Q { num = B.of_int n; den = B.one }
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    if n = 0 then zero
    else begin
      let g = igcd (abs n) d in
      let n = n / g and d = d / g in
      if fits n && fits d then S (n, d) else Q { num = B.of_int n; den = B.of_int d }
    end
  end

let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then zero
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    let num = B.div num g and den = B.div den g in
    match (B.to_int_opt num, B.to_int_opt den) with
    | Some n, Some d when fits n && fits d -> S (n, d)
    | _ -> Q { num; den }
  end

let of_bigint n =
  match B.to_int_opt n with
  | Some i when fits i -> S (i, 1)
  | _ -> Q { num = n; den = B.one }

let of_int n = if fits n then S (n, 1) else Q { num = B.of_int n; den = B.one }

let of_ints a b =
  if b = 0 then raise Division_by_zero
  else if a <> min_int && b <> min_int then norm_small a b
  else make (B.of_int a) (B.of_int b)

let num = function S (n, _) -> B.of_int n | Q q -> q.num
let den = function S (_, d) -> B.of_int d | Q q -> q.den

let neg = function
  | S (n, d) -> S (-n, d)
  | Q { num; den } -> Q { num = B.neg num; den }

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | Q { num; den } -> make den num

let abs = function
  | S (n, d) -> S (abs n, d)
  | Q { num; den } -> Q { num = B.abs num; den }

let add a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> norm_small ((n1 * d2) + (n2 * d1)) (d1 * d2)
  | _ ->
      make
        (B.add (B.mul (num a) (den b)) (B.mul (num b) (den a)))
        (B.mul (den a) (den b))

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> norm_small (n1 * n2) (d1 * d2)
  | _ -> make (B.mul (num a) (num b)) (B.mul (den a) (den b))

let div a b =
  match (a, b) with
  | _, S (0, _) -> raise Division_by_zero
  | S (n1, d1), S (n2, d2) -> norm_small (n1 * d2) (d1 * n2)
  | _ -> mul a (inv b)

let mul_int a k = mul a (of_int k)
let div_int a k = div a (of_int k)

let sign = function S (n, _) -> Stdlib.compare n 0 | Q q -> B.sign q.num
let is_zero = function S (n, _) -> n = 0 | Q _ -> false

let equal a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> n1 = n2 && d1 = d2
  | Q q1, Q q2 -> B.equal q1.num q2.num && B.equal q1.den q2.den
  | _ -> false

let compare a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> Stdlib.compare (n1 * d2) (n2 * d1)
  | _ -> B.compare (B.mul (num a) (den b)) (B.mul (num b) (den a))

let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b

let floor = function
  | S (n, d) -> B.of_int (if n >= 0 || n mod d = 0 then n / d else (n / d) - 1)
  | Q { num; den } ->
      let q, r = B.divmod num den in
      if B.sign r < 0 then B.pred q else q

let ceil = function
  | S (n, d) -> B.of_int (if n <= 0 || n mod d = 0 then n / d else (n / d) + 1)
  | Q { num; den } ->
      let q, r = B.divmod num den in
      if B.sign r > 0 then B.succ q else q

let is_integer = function S (_, d) -> d = 1 | Q q -> B.equal q.den B.one

let to_int_opt = function
  | S (n, 1) -> Some n
  | S _ -> None
  | Q q -> if B.equal q.den B.one then B.to_int_opt q.num else None

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | Q { num; den } -> B.to_float num /. B.to_float den

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Q { num; den } ->
      if B.equal den B.one then B.to_string num
      else B.to_string num ^ "/" ^ B.to_string den

let rec all_digits s p len =
  p = len || match String.unsafe_get s p with '0' .. '9' -> all_digits s (p + 1) len | _ -> false

let rec decimal s p len acc =
  if p = len then acc else decimal s (p + 1) len ((acc * 10) + Char.code (String.unsafe_get s p) - 48)

let of_big_string s =
  match String.index_opt s '/' with
  | Some i ->
      let n = B.of_string (String.sub s 0 i) in
      let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make n d
  | None -> (
      match String.index_opt s '.' with
      | None -> of_bigint (B.of_string s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac = String.sub s (i + 1) (String.length s - i - 1) in
          if frac = "" then invalid_arg "Rat.of_string: trailing dot";
          let negative = String.length int_part > 0 && int_part.[0] = '-' in
          let scale = B.pow (B.of_int 10) (String.length frac) in
          let whole =
            if int_part = "" || int_part = "-" || int_part = "+" then B.zero
            else B.of_string int_part
          in
          let frac_val = make (B.of_string frac) scale in
          let base = of_bigint whole in
          if negative then sub base frac_val else add base frac_val)

(* An optional sign and at most nine digits is below [small_lim], so it
   is read natively; everything else goes through {!Bigint}. *)
let of_string s =
  let len = String.length s in
  let start = if len > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  if len > start && len - start <= 9 && all_digits s start len then
    let v = decimal s start len 0 in
    of_int (if start = 1 && s.[0] = '-' then -v else v)
  else of_big_string s

let pp fmt t = Format.pp_print_string fmt (to_string t)

let sum xs = List.fold_left add zero xs
