module A = Rel.Attr
module S = Rel.Schema
module R = Rel.Relation
module T = Rel.Tuple

type t = {
  name : string;
  inputs : A.t list;
  outputs : A.t list;
  table : R.t;
}

let of_table ~name ~inputs ~outputs table =
  let in_names = List.map A.name inputs and out_names = List.map A.name outputs in
  List.iter
    (fun n ->
      if List.mem n out_names then
        invalid_arg (Printf.sprintf "Wmodule %s: attribute %s is both input and output" name n))
    in_names;
  (* Every schema holds distinct names, so a table schema that matches
     inputs @ outputs attribute by attribute proves them distinct; only
     a mismatch builds the expected schema, for its duplicate check. *)
  let schema = R.schema table in
  let rec matches i = function
    | [] -> i = S.size schema
    | a :: rest -> i < S.size schema && A.equal a (S.attr schema i) && matches (i + 1) rest
  in
  if not (matches 0 (inputs @ outputs)) then begin
    ignore (S.of_list (inputs @ outputs));
    invalid_arg (Printf.sprintf "Wmodule %s: table schema must be inputs @ outputs" name)
  end;
  (* Inputs lead the schema and rows are sorted and distinct, so rows
     sharing an input tuple are adjacent and differ in their outputs. *)
  let k = List.length inputs in
  let same_input a b =
    let rec go i = i = k || (a.(i) = b.(i) && go (i + 1)) in
    go 0
  in
  let rec fd_holds = function
    | a :: (b :: _ as rest) -> (not (same_input a b)) && fd_holds rest
    | _ -> true
  in
  if not (fd_holds (R.rows table)) then
    invalid_arg (Printf.sprintf "Wmodule %s: functional dependency I -> O violated" name);
  { name; inputs; outputs; table }

let of_checked ~name ~inputs ~outputs table = { name; inputs; outputs; table }

let of_partial_fun ~name ~inputs ~outputs ~defined_on f =
  let schema = S.of_list (inputs @ outputs) in
  let rows = List.map (fun x -> Array.append x (f x)) defined_on in
  of_table ~name ~inputs ~outputs (R.create schema rows)

let of_fun ~name ~inputs ~outputs f =
  let in_schema = S.of_list inputs in
  of_partial_fun ~name ~inputs ~outputs ~defined_on:(S.all_tuples in_schema) f

let input_names t = List.map A.name t.inputs
let output_names t = List.map A.name t.outputs
let attr_names t = input_names t @ output_names t
let arity t = List.length t.inputs + List.length t.outputs
let input_schema t = S.of_list t.inputs
let output_schema t = S.of_list t.outputs

let apply t x =
  let schema = R.schema t.table in
  let in_plan = Rel.Plan.restrict schema (input_names t) in
  let out_plan = Rel.Plan.restrict schema (output_names t) in
  let found =
    List.find_opt
      (fun row -> T.equal (Rel.Plan.apply in_plan row) x)
      (R.rows t.table)
  in
  Option.map (Rel.Plan.apply out_plan) found

let defined_inputs t = R.rows (R.project t.table (input_names t))

let is_one_one t =
  R.distinct_values t.table (output_names t) = R.size t.table

let is_constant t = R.distinct_values t.table (output_names t) <= 1

let rename t name = { t with name }

let pp fmt t =
  Format.fprintf fmt "module %s: %s -> %s@.%a" t.name
    (String.concat "," (input_names t))
    (String.concat "," (output_names t))
    R.pp t.table
