module A = Rel.Attr
module S = Rel.Schema
module R = Rel.Relation
module T = Rel.Tuple

type t = {
  modules : Wmodule.t array;
  schema : S.t;
  initial : A.t list;
  names : string array;
  ins : int array array;
  outs : int array array;
}

let ( let* ) = Result.bind

(* Everything below works on attribute ids: [ins.(i)] and [outs.(i)]
   number module [i]'s attributes in [0, n), and [attrs.(id)] is the
   attribute an id stands for. *)

(* The producer of each id, or -1; fails when two modules produce one. *)
let producers n outs =
  let producer = Array.make n (-1) in
  let exception Twice in
  match
    Array.iteri
      (fun i o ->
        Array.iter
          (fun a -> if producer.(a) >= 0 then raise_notrace Twice else producer.(a) <- i)
          o)
      outs
  with
  | () -> Ok producer
  | exception Twice -> Error "some attribute is produced by two modules"

(* Kahn's algorithm over the module-dependency graph: m' -> m when some
   output of m' is an input of m. Returns module indices in
   topological order. *)
let topo_sort ins producer =
  let n = Array.length ins in
  let deps i =
    Array.fold_right (fun a acc -> if producer.(a) >= 0 then producer.(a) :: acc else acc) ins.(i) []
    |> List.sort_uniq Int.compare
  in
  let indegree = Array.make n 0 in
  let dependents = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter
      (fun j ->
        indegree.(i) <- indegree.(i) + 1;
        dependents.(j) <- i :: dependents.(j))
      (deps i)
  done;
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
  else Ok (Array.of_list (List.rev !order))

(* Order the modules, then renumber the attributes by schema position:
   the initial inputs in first-appearance order, then every module's
   outputs. Returns the workflow, the schema position of each caller id
   (-1 when no module uses it) and the caller's index of each module. *)
let assemble mods attr ins outs producer =
  let* order = topo_sort ins producer in
  let pos = Array.make (Array.length producer) (-1) in
  let next = ref 0 in
  let place a =
    if pos.(a) < 0 then begin
      pos.(a) <- !next;
      incr next
    end
  in
  Array.iter (fun i -> Array.iter (fun a -> if producer.(a) < 0 then place a) ins.(i)) order;
  let n_initial = !next in
  Array.iter (fun i -> Array.iter place outs.(i)) order;
  let by_pos = Array.make !next 0 in
  Array.iteri (fun a p -> if p >= 0 then by_pos.(p) <- a) pos;
  let schema_attrs = Array.to_list (Array.map attr by_pos) in
  let remap ids = Array.map (fun a -> pos.(a)) ids in
  Ok
    ( {
        modules = Array.map (fun i -> mods.(i)) order;
        schema = S.of_distinct schema_attrs;
        initial = List.filteri (fun i _ -> i < n_initial) schema_attrs;
        names = Array.map (fun a -> A.name (attr a)) by_pos;
        ins = Array.map (fun i -> remap ins.(i)) order;
        outs = Array.map (fun i -> remap outs.(i)) order;
      },
      pos,
      order )

let of_interned mods ~n_attrs ~attr ~ins ~outs =
  let* producer = producers n_attrs outs in
  assemble mods attr ins outs producer

(* One table numbers the attribute names in order of appearance; a
   name seen again with another domain is reported after the producer
   check, as the checks have always been ordered. *)
let create mods =
  if mods = [] then Error "empty workflow"
  else if Svutil.Listx.has_duplicate (List.map (fun (m : Wmodule.t) -> m.Wmodule.name) mods) then
    Error "duplicate module names"
  else
    let ids = Hashtbl.create 32 in
    let attrs = ref [] and n = ref 0 and conflict = ref None in
    let intern a =
      match Hashtbl.find_opt ids (A.name a) with
      | Some (id, dom) ->
          if dom <> A.dom a && !conflict = None then
            conflict :=
              Some (Printf.sprintf "attribute %s used with domains %d and %d" (A.name a) dom (A.dom a));
          id
      | None ->
          let id = !n in
          Hashtbl.add ids (A.name a) (id, A.dom a);
          attrs := a :: !attrs;
          incr n;
          id
    in
    let mods = Array.of_list mods in
    let ins = Array.make (Array.length mods) [||] and outs = Array.make (Array.length mods) [||] in
    Array.iteri
      (fun i (m : Wmodule.t) ->
        ins.(i) <- Array.of_list (List.map intern m.Wmodule.inputs);
        outs.(i) <- Array.of_list (List.map intern m.Wmodule.outputs))
      mods;
    let attrs = Array.of_list (List.rev !attrs) in
    let* producer = producers (Array.length attrs) outs in
    let* () = match !conflict with Some e -> Error e | None -> Ok () in
    let* t, _, _ = assemble mods (fun a -> attrs.(a)) ins outs producer in
    Ok t

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
  (* Compile every lookup once: per-module input/output positions (the
     ids) and a hash index of each module table. The returned closure
     runs one initial input in O(total module arity) array/hash
     operations. *)
  let width = S.size t.schema in
  (* Attribute ids are schema positions, and the initial inputs lead. *)
  let init_pos = Array.init (List.length t.initial) Fun.id in
  let compiled =
    Array.mapi
      (fun i (m : Wmodule.t) ->
        let in_pos = t.ins.(i) and out_pos = t.outs.(i) in
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
