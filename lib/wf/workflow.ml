module A = Rel.Attr
module S = Rel.Schema
module R = Rel.Relation
module T = Rel.Tuple

type t = {
  modules : Wmodule.t array;
  schema : S.t;
  initial : A.t list;
}

let ( let* ) = Result.bind

let validate_names mods =
  if Svutil.Listx.has_duplicate (List.map (fun (m : Wmodule.t) -> m.Wmodule.name) mods) then
    Error "duplicate module names"
  else Ok ()

let validate_outputs_disjoint mods =
  if Svutil.Listx.has_duplicate (List.concat_map Wmodule.output_names mods) then
    Error "some attribute is produced by two modules"
  else Ok ()

let validate_domains mods =
  let exception Conflict of string * int * int in
  let tbl = Hashtbl.create 16 in
  let check a =
    let name = A.name a and dom = A.dom a in
    match Hashtbl.find_opt tbl name with
    | Some dom' -> if dom <> dom' then raise_notrace (Conflict (name, dom', dom))
    | None -> Hashtbl.add tbl name dom
  in
  match
    List.iter
      (fun (m : Wmodule.t) ->
        List.iter check m.Wmodule.inputs;
        List.iter check m.Wmodule.outputs)
      mods
  with
  | () -> Ok ()
  | exception Conflict (name, dom', dom) ->
      Error (Printf.sprintf "attribute %s used with domains %d and %d" name dom' dom)

(* Kahn's algorithm over the module-dependency graph: m' -> m when some
   output of m' is an input of m. Outputs are unique, so dependencies
   are found through a producer map. *)
let topo_sort mods =
  let producer = Hashtbl.create 16 in
  List.iteri
    (fun i m -> List.iter (fun o -> Hashtbl.replace producer o i) (Wmodule.output_names m))
    mods;
  let arr = Array.of_list mods in
  let n = Array.length arr in
  let deps i =
    Wmodule.input_names arr.(i)
    |> List.filter_map (Hashtbl.find_opt producer)
    |> List.sort_uniq Int.compare
  in
  let indegree = Array.make n 0 in
  let dependents = Array.make n [] in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun j ->
          indegree.(i) <- indegree.(i) + 1;
          dependents.(j) <- i :: dependents.(j))
        (deps i))
    arr;
  (* Preserve the caller's relative order among ties. *)
  Array.iteri (fun i l -> dependents.(i) <- List.rev l) dependents;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let i = Queue.take queue in
    order := i :: !order;
    List.iter
      (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then Queue.add j queue)
      dependents.(i)
  done;
  if List.length !order <> n then Error "workflow contains a cycle"
  else Ok (List.rev_map (fun i -> arr.(i)) !order)

let create mods =
  if mods = [] then Error "empty workflow"
  else
    let* () = validate_names mods in
    let* () = validate_outputs_disjoint mods in
    let* () = validate_domains mods in
    let* sorted = topo_sort mods in
    (* Initial inputs in first-appearance order, deduplicated: every
       name not produced by a module is marked on first sight. *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun m -> List.iter (fun o -> Hashtbl.replace seen o ()) (Wmodule.output_names m))
      sorted;
    let initial =
      List.concat_map
        (fun (m : Wmodule.t) ->
          List.filter
            (fun a ->
              (not (Hashtbl.mem seen (A.name a)))
              && begin
                   Hashtbl.add seen (A.name a) ();
                   true
                 end)
            m.Wmodule.inputs)
        sorted
    in
    let out_attrs = List.concat_map (fun (m : Wmodule.t) -> m.Wmodule.outputs) sorted in
    let schema = S.of_list (initial @ out_attrs) in
    Ok { modules = Array.of_list sorted; schema; initial }

let create_exn mods =
  match create mods with Ok t -> t | Error e -> invalid_arg ("Workflow.create: " ^ e)

let modules t = Array.to_list t.modules

let find_module t name =
  List.find_opt (fun (m : Wmodule.t) -> m.Wmodule.name = name) (modules t)

let module_names t = List.map (fun (m : Wmodule.t) -> m.Wmodule.name) (modules t)
let attr_names t = S.names t.schema
let initial_names t = List.map A.name t.initial

let consumers t attr =
  modules t
  |> List.filter (fun m -> List.mem attr (Wmodule.input_names m))
  |> List.map (fun (m : Wmodule.t) -> m.Wmodule.name)

let producer t attr =
  modules t
  |> List.find_opt (fun m -> List.mem attr (Wmodule.output_names m))
  |> Option.map (fun (m : Wmodule.t) -> m.Wmodule.name)

let final_names t =
  attr_names t
  |> List.filter (fun a -> producer t a <> None && consumers t a = [])

let intermediate_names t =
  attr_names t
  |> List.filter (fun a -> producer t a <> None && consumers t a <> [])

let data_sharing_degree t =
  Svutil.Listx.max_by (fun a -> List.length (consumers t a)) (attr_names t)

let runner t =
  (* Compile every per-name lookup once: schema positions for all
     attributes, per-module input/output positions, and a hash index of
     each module table. The returned closure runs one initial input in
     O(total module arity) array/hash operations. *)
  let pos = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace pos n i) (S.names t.schema);
  let width = S.size t.schema in
  let init_pos =
    Array.of_list (List.map (fun a -> Hashtbl.find pos (A.name a)) t.initial)
  in
  let compiled =
    Array.map
      (fun (m : Wmodule.t) ->
        let in_pos =
          Array.of_list (List.map (Hashtbl.find pos) (Wmodule.input_names m))
        in
        let out_pos =
          Array.of_list (List.map (Hashtbl.find pos) (Wmodule.output_names m))
        in
        let schema = R.schema m.Wmodule.table in
        let in_plan = Rel.Plan.restrict schema (Wmodule.input_names m) in
        let out_plan = Rel.Plan.restrict schema (Wmodule.output_names m) in
        let table = Hashtbl.create (R.size m.Wmodule.table) in
        R.iter m.Wmodule.table ~f:(fun row ->
            Hashtbl.replace table (Rel.Plan.apply in_plan row)
              (Rel.Plan.apply out_plan row));
        (in_pos, out_pos, table))
      t.modules
  in
  fun x ->
    let values = Array.make width (-1) in
    Array.iteri (fun i p -> values.(p) <- x.(i)) init_pos;
    let ok =
      Array.for_all
        (fun (in_pos, out_pos, table) ->
          let input = Array.map (fun p -> values.(p)) in_pos in
          match Hashtbl.find_opt table input with
          | None -> false
          | Some out ->
              Array.iteri (fun i p -> values.(p) <- out.(i)) out_pos;
              true)
        compiled
    in
    if ok then Some values else None

let run t x = runner t x

let relation ?initial_tuples t =
  let inputs =
    match initial_tuples with
    | Some l -> l
    | None -> S.all_tuples (S.of_list t.initial)
  in
  let run_one = runner t in
  R.create t.schema (List.filter_map run_one inputs)

let with_modules t mods =
  let compatible (a : Wmodule.t) (b : Wmodule.t) =
    a.Wmodule.name = b.Wmodule.name
    && List.equal A.equal a.Wmodule.inputs b.Wmodule.inputs
    && List.equal A.equal a.Wmodule.outputs b.Wmodule.outputs
  in
  let subst (m : Wmodule.t) =
    match List.find_opt (fun m' -> m'.Wmodule.name = m.Wmodule.name) mods with
    | None -> m
    | Some m' ->
        if compatible m m' then m'
        else invalid_arg "Workflow.with_modules: incompatible substitute"
  in
  { t with modules = Array.map subst t.modules }

let pp fmt t =
  Format.fprintf fmt "workflow over %a@." S.pp t.schema;
  List.iter (fun m -> Format.fprintf fmt "%a@." Wmodule.pp m) (modules t)
