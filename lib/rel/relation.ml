type t = {
  schema : Schema.t;
  rows : Tuple.t list;
  index : Tuple.t Svutil.Hset.t Lazy.t;  (** hashed row set, built on first [mem] *)
}

let make schema rows =
  { schema; rows; index = lazy (Svutil.Hset.of_list rows) }

let create schema rows =
  List.iter
    (fun r ->
      if not (Tuple.validate schema r) then
        invalid_arg
          (Printf.sprintf "Relation.create: malformed row %s" (Tuple.to_string r)))
    rows;
  make schema (List.sort_uniq Tuple.compare rows)

let of_sorted = make

let schema t = t.schema
let rows t = t.rows
let size t = List.length t.rows
let is_empty t = t.rows = []
let mem t row = Svutil.Hset.mem (Lazy.force t.index) row
let equal a b = Schema.equal a.schema b.schema && a.rows = b.rows

let full schema = create schema (Schema.all_tuples schema)

let project t names =
  let sub = Schema.restrict t.schema names in
  let plan = Plan.restrict t.schema names in
  create sub (List.map (Plan.apply plan) t.rows)

let select t pred = make t.schema (List.filter (pred t.schema) t.rows)

let reorder t names =
  if List.sort compare names <> List.sort compare (Schema.names t.schema) then
    invalid_arg "Relation.reorder: names must match the schema exactly";
  let perm = Array.of_list (List.map (Schema.index_of t.schema) names) in
  let schema = Schema.of_list (List.map (fun n -> Schema.attr t.schema (Schema.index_of t.schema n)) names) in
  create schema (List.map (fun row -> Array.map (fun i -> row.(i)) perm) t.rows)

let join a b =
  let names_a = Schema.names a.schema and names_b = Schema.names b.schema in
  let common = List.filter (fun n -> List.mem n names_b) names_a in
  List.iter
    (fun n ->
      let da = Attr.dom (Schema.attr a.schema (Schema.index_of a.schema n)) in
      let db = Attr.dom (Schema.attr b.schema (Schema.index_of b.schema n)) in
      if da <> db then
        invalid_arg (Printf.sprintf "Relation.join: attribute %s has conflicting domains" n))
    common;
  let only_b = List.filter (fun n -> not (List.mem n common)) names_b in
  let out_schema =
    Schema.of_list
      (Schema.attrs a.schema
      @ List.filter (fun at -> List.mem (Attr.name at) only_b) (Schema.attrs b.schema))
  in
  (* Index the right side by its common-attribute projection. Ordered
     plans keep the two sides' keys aligned even if their schemas order
     the shared attributes differently. *)
  let common_b = Plan.ordered b.schema common in
  let common_a = Plan.ordered a.schema common in
  let extra_b = Plan.restrict b.schema only_b in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun rb -> Hashtbl.add tbl (Plan.apply common_b rb) rb)
    b.rows;
  let out_rows =
    List.concat_map
      (fun ra ->
        Hashtbl.find_all tbl (Plan.apply common_a ra)
        |> List.map (fun rb -> Array.append ra (Plan.apply extra_b rb)))
      a.rows
  in
  create out_schema out_rows

let satisfies_fd t ~lhs ~rhs =
  let lhs_plan = Plan.restrict t.schema lhs in
  let rhs_plan = Plan.restrict t.schema rhs in
  let tbl = Hashtbl.create 64 in
  List.for_all
    (fun row ->
      let key = Plan.apply lhs_plan row in
      let v = Plan.apply rhs_plan row in
      match Hashtbl.find_opt tbl key with
      | Some v' -> Tuple.equal v v'
      | None ->
          Hashtbl.add tbl key v;
          true)
    t.rows

let distinct_values t names =
  size (project t names)

let fold t ~init ~f = List.fold_left f init t.rows
let iter t ~f = List.iter f t.rows

let to_table ?(groups = []) t =
  let role name =
    match List.find_opt (fun (_, names) -> List.mem name names) groups with
    | Some (label, _) -> label ^ ":" ^ name
    | None -> name
  in
  let table = Svutil.Table.create (List.map role (Schema.names t.schema)) in
  List.iter
    (fun row ->
      Svutil.Table.add_row table (List.map string_of_int (Array.to_list row)))
    t.rows;
  table

let pp fmt t =
  Format.pp_print_string fmt (Svutil.Table.render (to_table t))
