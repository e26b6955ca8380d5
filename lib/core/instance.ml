module Listx = Svutil.Listx

type module_req = {
  m_name : string;
  inputs : string list;
  outputs : string list;
  req : Requirement.t;
}

type public_mod = { p_name : string; p_cost : Rat.t; p_attrs : string list }

type t = {
  attr_costs : (string * Rat.t) list;
  mods : module_req list;
  publics : public_mod list;
}

let make ~attr_costs ~mods ?(publics = []) () =
  if Listx.has_duplicate (List.map fst attr_costs) then
    invalid_arg "Instance.make: duplicate attributes";
  List.iter
    (fun (a, c) ->
      if Rat.sign c < 0 then
        invalid_arg (Printf.sprintf "Instance.make: negative cost for %s" a))
    attr_costs;
  let names = List.map (fun m -> m.m_name) mods @ List.map (fun p -> p.p_name) publics in
  if Listx.has_duplicate names then invalid_arg "Instance.make: duplicate module names";
  let known = Hashtbl.create 16 in
  List.iter (fun (a, _) -> Hashtbl.replace known a ()) attr_costs;
  let check_attr owner a =
    if not (Hashtbl.mem known a) then
      invalid_arg (Printf.sprintf "Instance.make: %s references unknown attribute %s" owner a)
  in
  List.iter
    (fun m ->
      List.iter (check_attr m.m_name) m.inputs;
      List.iter (check_attr m.m_name) m.outputs)
    mods;
  List.iter
    (fun p ->
      if Rat.sign p.p_cost < 0 then
        invalid_arg (Printf.sprintf "Instance.make: negative cost for %s" p.p_name);
      List.iter (check_attr p.p_name) p.p_attrs)
    publics;
  { attr_costs; mods; publics }

let of_workflow w ~gamma ?(gamma_overrides = []) ~cost ?(publics = []) () =
  let attr_costs = List.map (fun a -> (a, cost a)) (Wf.Workflow.attr_names w) in
  let overrides = Listx.assoc_table gamma_overrides
  and public_tbl = Listx.assoc_table publics
  and by_name =
    Listx.assoc_table
      (List.map (fun (m : Wf.Wmodule.t) -> (m.Wf.Wmodule.name, m)) (Wf.Workflow.modules w))
  in
  let gamma_of name = Option.value ~default:gamma (Hashtbl.find_opt overrides name) in
  let mods =
    Wf.Workflow.modules w
    |> List.filter (fun (m : Wf.Wmodule.t) -> not (Hashtbl.mem public_tbl m.Wf.Wmodule.name))
    |> List.map (fun (m : Wf.Wmodule.t) ->
           {
             m_name = m.Wf.Wmodule.name;
             inputs = Wf.Wmodule.input_names m;
             outputs = Wf.Wmodule.output_names m;
             req = Derive.requirement m ~gamma:(gamma_of m.Wf.Wmodule.name);
           })
  in
  let publics =
    List.map
      (fun (name, p_cost) ->
        match Hashtbl.find_opt by_name name with
        | None -> invalid_arg (Printf.sprintf "Instance.of_workflow: no module %s" name)
        | Some m -> { p_name = name; p_cost; p_attrs = Wf.Wmodule.attr_names m })
      publics
  in
  make ~attr_costs ~mods ~publics ()

let attrs t = List.map fst t.attr_costs

let attr_cost t a =
  match List.assoc_opt a t.attr_costs with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Instance.attr_cost: unknown attribute %s" a)

let lmax t = Listx.max_by (fun m -> Requirement.lmax m.req) t.mods

let n_modules t = List.length t.mods

let required_privatizations t ~hidden =
  t.publics
  |> List.filter (fun p -> Listx.inter p.p_attrs hidden <> [])
  |> List.map (fun p -> p.p_name)

let feasible t ~hidden ~privatized =
  List.for_all
    (fun m ->
      Requirement.is_satisfied m.req ~inputs:m.inputs ~outputs:m.outputs ~hidden)
    t.mods
  && List.for_all (fun p -> List.mem p privatized) (required_privatizations t ~hidden)

let cost t ~hidden ~privatized =
  let attr_part = Rat.sum (List.map (attr_cost t) (Listx.dedup hidden)) in
  let pub_part =
    Rat.sum
      (List.filter_map
         (fun p -> if List.mem p.p_name privatized then Some p.p_cost else None)
         t.publics)
  in
  Rat.add attr_part pub_part

let to_sets t =
  {
    t with
    mods =
      List.map
        (fun m ->
          {
            m with
            req = Requirement.Sets (Requirement.to_sets ~inputs:m.inputs ~outputs:m.outputs m.req);
          })
        t.mods;
  }

let pp fmt t =
  Format.fprintf fmt "secure-view instance: %d attrs, %d modules, %d publics@."
    (List.length t.attr_costs) (List.length t.mods) (List.length t.publics);
  List.iter
    (fun m -> Format.fprintf fmt "  %s: %a@." m.m_name Requirement.pp m.req)
    t.mods;
  List.iter
    (fun p ->
      Format.fprintf fmt "  public %s (cost %s): {%s}@." p.p_name (Rat.to_string p.p_cost)
        (String.concat "," p.p_attrs))
    t.publics
