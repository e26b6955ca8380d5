(* Canonical labeling by individualization-refinement, in the style of
   nauty and bliss, over the instance's incidence graph.

   Vertices are the attributes, the private modules, one vertex per
   option of a set-form requirement, and the public modules. Edges carry
   the attribute's role: input or output of a module, hidden input or
   hidden output of an option; options hang off their module. Initial
   colours are ranks of the name-free payload (attribute cost,
   requirement shape, privatization cost), so no name ever reaches a
   colour. Only attributes are individualized: once every attribute has
   its own cell, the attribute order fixes the whole serialization, since
   module and public lines are sorted. *)

(* Leaves the search may visit before it settles for its first leaf. *)
let leaf_budget = 256

(* {1 The incidence graph} *)

type mdata = {
  ins : int array;
  outs : int array;
  card : (int * int) list option;  (* normalized; [None] for set form *)
  opts : (int array * int array) array;
  mutable shape : int;  (* rank of the requirement shape *)
}

type pdata = { pcost : Rat.t; prank : int; pattrs : int array }

type graph = {
  na : int;  (* attributes are vertices [0, na) *)
  n : int;
  off : int array;  (* CSR offsets, length n + 1 *)
  adj : int array;
  wt : int array;  (* 1 for inputs and memberships, [heavy] for outputs *)
  cost_text : string array;  (* attribute -> its cost as the form writes it *)
  mods : mdata array;
  pubs : pdata array;
  first_opt : int;  (* options are vertices [first_opt, first_pub) *)
  first_pub : int;
}

(* Dense ranks of [a] under [cmp], and how many distinct values. *)
let dense_ranks cmp a =
  let n = Array.length a in
  let idx = Array.init n (fun i -> i) in
  Array.stable_sort (fun i j -> cmp a.(i) a.(j)) idx;
  let r = Array.make n 0 in
  let k = ref 0 in
  for t = 1 to n - 1 do
    if cmp a.(idx.(t - 1)) a.(idx.(t)) <> 0 then incr k;
    r.(idx.(t)) <- !k
  done;
  (r, if n = 0 then 0 else !k + 1)

(* Cardinality shapes first, by their pair lists; then set shapes, by
   option count. *)
let compare_shape a b =
  let rec pairs x y =
    match (x, y) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | (a1, b1) :: x, (a2, b2) :: y ->
        let c = Int.compare a1 a2 in
        if c <> 0 then c
        else
          let c = Int.compare b1 b2 in
          if c <> 0 then c else pairs x y
  in
  match (a.card, b.card) with
  | Some x, Some y -> pairs x y
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None -> Int.compare (Array.length a.opts) (Array.length b.opts)

(* The graph, each vertex's initial colour and the number of colours.
   Colours order vertices by kind, then payload rank, attributes first. *)
let build (inst : Instance.t) =
  let costs = inst.Instance.costs in
  let na = Array.length costs in
  let mods =
    Array.map
      (fun (m : Instance.pmod) ->
        let card, opts =
          match m.Instance.ireq with
          | Instance.Card l -> (Some (Requirement.normalize_card l), [||])
          | Instance.Sets a -> (None, a)
        in
        { ins = m.Instance.ins; outs = m.Instance.outs; card; opts; shape = 0 })
      inst.Instance.pmods
  in
  let shape_rank, nshape = dense_ranks compare_shape mods in
  Array.iteri (fun i m -> m.shape <- shape_rank.(i)) mods;
  let crank, ncost = dense_ranks Rat.compare costs in
  (* One [Rat.to_string] per distinct cost. *)
  let texts = Array.make ncost "" in
  let cost_text =
    Array.mapi
      (fun a r ->
        if texts.(r) = "" then texts.(r) <- Rat.to_string costs.(a);
        texts.(r))
      crank
  in
  let publics = inst.Instance.pubs in
  let prank, npcost =
    dense_ranks Rat.compare (Array.map (fun (p : Instance.pub) -> p.Instance.pcost) publics)
  in
  let pubs =
    Array.mapi
      (fun j (p : Instance.pub) ->
        { pcost = p.Instance.pcost; prank = prank.(j); pattrs = p.Instance.pattrs })
      publics
  in
  let nm = Array.length mods in
  let no = Array.fold_left (fun s m -> s + Array.length m.opts) 0 mods in
  let first_opt = na + nm in
  let first_pub = first_opt + no in
  let n = first_pub + Array.length pubs in
  let iter_edges edge =
    let o = ref first_opt in
    Array.iteri
      (fun i m ->
        let mv = na + i in
        Array.iter (fun a -> edge a mv false) m.ins;
        Array.iter (fun a -> edge a mv true) m.outs;
        Array.iter
          (fun (oi, oo) ->
            let ov = !o in
            incr o;
            edge ov mv false;
            Array.iter (fun a -> edge a ov false) oi;
            Array.iter (fun a -> edge a ov true) oo)
          m.opts)
      mods;
    Array.iteri
      (fun j p -> Array.iter (fun a -> edge a (first_pub + j) false) p.pattrs)
      pubs
  in
  let off = Array.make (n + 1) 0 in
  iter_edges (fun u v _ ->
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1);
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  (* An output weight above any vertex's degree keeps the per-splitter
     sums [inputs + heavy * outputs] distinct. *)
  let heavy = off.(n) + 1 in
  let adj = Array.make off.(n) 0 and wt = Array.make off.(n) 0 in
  let cur = Array.sub off 0 n in
  iter_edges (fun u v out ->
      let w = if out then heavy else 1 in
      adj.(cur.(u)) <- v;
      wt.(cur.(u)) <- w;
      cur.(u) <- cur.(u) + 1;
      adj.(cur.(v)) <- u;
      wt.(cur.(v)) <- w;
      cur.(v) <- cur.(v) + 1);
  let color v =
    if v < na then crank.(v)
    else if v < first_opt then ncost + mods.(v - na).shape
    else if v < first_pub then ncost + nshape
    else ncost + nshape + 1 + pubs.(v - first_pub).prank
  in
  let g =
    { na; n; off; adj; wt; cost_text; mods; pubs; first_opt; first_pub }
  in
  (g, Array.init n color, ncost + nshape + 1 + npcost)

(* {1 Ordered partitions and refinement} *)

type part = {
  lab : int array;  (* position -> vertex *)
  cell : int array;  (* vertex -> start position of its cell *)
  cend : int array;  (* cell start -> end position (exclusive) *)
  mutable acells : int;  (* cells among the attribute positions [0, na) *)
}

let copy p =
  { lab = Array.copy p.lab; cell = Array.copy p.cell; cend = Array.copy p.cend;
    acells = p.acells }

(* Work arrays shared by every refinement of one labeling. [cnt] is all
   zeros between splitters; the queue holds cell starts, each at most
   once. *)
type scratch = {
  cnt : int array;
  touched : int array;
  hit : int array;
  marked : Bytes.t;
  queue : int array;
  inq : Bytes.t;
  mutable qhead : int;
  mutable qlen : int;
}

let scratch n =
  { cnt = Array.make n 0; touched = Array.make n 0; hit = Array.make n 0;
    marked = Bytes.make n '\000'; queue = Array.make n 0;
    inq = Bytes.make n '\000'; qhead = 0; qlen = 0 }

let push sc c =
  if Bytes.get sc.inq c = '\000' then begin
    Bytes.set sc.inq c '\001';
    sc.queue.((sc.qhead + sc.qlen) mod Array.length sc.queue) <- c;
    sc.qlen <- sc.qlen + 1
  end

let pop sc =
  let c = sc.queue.(sc.qhead) in
  sc.qhead <- (sc.qhead + 1) mod Array.length sc.queue;
  sc.qlen <- sc.qlen - 1;
  Bytes.set sc.inq c '\000';
  c

let initial_part g colors ncolors =
  let count = Array.make (ncolors + 1) 0 in
  Array.iter (fun c -> count.(c + 1) <- count.(c + 1) + 1) colors;
  for c = 1 to ncolors do
    count.(c) <- count.(c) + count.(c - 1)
  done;
  let p =
    { lab = Array.make g.n 0; cell = Array.make g.n 0; cend = Array.make g.n 0;
      acells = 0 }
  in
  let next = Array.sub count 0 ncolors in
  Array.iteri
    (fun v c ->
      p.lab.(next.(c)) <- v;
      next.(c) <- next.(c) + 1;
      p.cell.(v) <- count.(c))
    colors;
  for c = 0 to ncolors - 1 do
    let s = count.(c) in
    if count.(c + 1) > s then begin
      p.cend.(s) <- count.(c + 1);
      if s < g.na then p.acells <- p.acells + 1
    end
  done;
  p

(* Sort positions [c, e) of [lab] by ascending count. *)
let sort_by_count lab cnt c e =
  let sub = Array.sub lab c (e - c) in
  Array.stable_sort (fun a b -> Int.compare cnt.(a) cnt.(b)) sub;
  Array.blit sub 0 lab c (e - c)

(* Split cell [c] by the splitter counts, sub-cells in ascending count
   order. A queued cell keeps its place and queues every new part;
   otherwise every part but the first largest is queued (Hopcroft). *)
let split g sc p c =
  let e = p.cend.(c) in
  let lab = p.lab and cnt = sc.cnt in
  let i = ref (c + 1) in
  while !i < e && cnt.(lab.(!i)) = cnt.(lab.(c)) do
    incr i
  done;
  if !i < e then begin
    sort_by_count lab cnt c e;
    let queued = Bytes.get sc.inq c <> '\000' in
    let big = ref c and big_size = ref 0 in
    let s = ref c in
    for i = c + 1 to e do
      if i = e || cnt.(lab.(i)) <> cnt.(lab.(i - 1)) then begin
        p.cend.(!s) <- i;
        if !s > c then begin
          for j = !s to i - 1 do
            p.cell.(lab.(j)) <- !s
          done;
          if c < g.na then p.acells <- p.acells + 1
        end;
        if i - !s > !big_size then begin
          big := !s;
          big_size := i - !s
        end;
        s := i
      end
    done;
    let s = ref c in
    while !s < e do
      if (queued && !s <> c) || ((not queued) && !s <> !big) then push sc !s;
      s := p.cend.(!s)
    done
  end

(* Refine to the coarsest equitable partition below [p] reachable from
   the queued splitters, or stop once every attribute has its own cell:
   the leaf's attribute order is fixed by then. *)
let refine g sc p =
  while sc.qlen > 0 && p.acells < g.na do
    let w = pop sc in
    let nt = ref 0 in
    for i = w to p.cend.(w) - 1 do
      let u = p.lab.(i) in
      for e = g.off.(u) to g.off.(u + 1) - 1 do
        let v = g.adj.(e) in
        if sc.cnt.(v) = 0 then begin
          sc.touched.(!nt) <- v;
          incr nt
        end;
        sc.cnt.(v) <- sc.cnt.(v) + g.wt.(e)
      done
    done;
    let nh = ref 0 in
    for k = 0 to !nt - 1 do
      let c = p.cell.(sc.touched.(k)) in
      if p.cend.(c) - c > 1 && Bytes.get sc.marked c = '\000' then begin
        Bytes.set sc.marked c '\001';
        (* Insertion keeps the hit cells in position order. *)
        let j = ref (!nh - 1) in
        while !j >= 0 && sc.hit.(!j) > c do
          sc.hit.(!j + 1) <- sc.hit.(!j);
          decr j
        done;
        sc.hit.(!j + 1) <- c;
        incr nh
      end
    done;
    for k = 0 to !nh - 1 do
      let c = sc.hit.(k) in
      Bytes.set sc.marked c '\000';
      split g sc p c
    done;
    for k = 0 to !nt - 1 do
      sc.cnt.(sc.touched.(k)) <- 0
    done
  done;
  while sc.qlen > 0 do
    ignore (pop sc)
  done

(* Give [v] its own cell at the front of its old one; returns the new
   singleton's start. *)
let individualize g p v =
  let c = p.cell.(v) in
  let e = p.cend.(c) in
  let i = ref c in
  while p.lab.(!i) <> v do
    incr i
  done;
  p.lab.(!i) <- p.lab.(c);
  p.lab.(c) <- v;
  p.cend.(c) <- c + 1;
  p.cend.(c + 1) <- e;
  for j = c + 1 to e - 1 do
    p.cell.(p.lab.(j)) <- c + 1
  done;
  if c < g.na then p.acells <- p.acells + 1;
  c

(* {1 Leaf certificates}

   A leaf's certificate is the instance relabeled by the leaf's
   attribute order: one int key per module (requirement shape, sorted
   input and output labels, sorted options) and per public module, each
   list sorted. Attribute costs are left out: every leaf of one search
   lists them in the same order. Equal certificates exhibit an
   automorphism; the minimal one is the canonical form. *)

type cert = { mkeys : (int array * int) array; pkeys : (int array * int) array }

(* Lexicographic order on int arrays, shorter first. *)
let compare_ints (a : int array) (b : int array) =
  let la = Array.length a in
  if la <> Array.length b then Int.compare la (Array.length b)
  else begin
    let r = ref 0 and i = ref 0 in
    while !r = 0 && !i < la do
      r := Int.compare a.(!i) b.(!i);
      incr i
    done;
    !r
  end

(* Write the count of [arr], then the labels [pos] gives its members in
   ascending order, into [dst] from [at]; returns the next free index. *)
let put_sorted pos arr dst at =
  let n = Array.length arr in
  dst.(at) <- n;
  let r = Array.map (fun a -> pos.(a)) arr in
  Array.sort Int.compare r;
  Array.blit r 0 dst (at + 1) n;
  at + n + 1

(* [shape; inputs; outputs; option count; options], each list
   count-prefixed and sorted, the options sorted among themselves. *)
let module_key pos m =
  let opts =
    Array.map
      (fun (oi, oo) ->
        let k = Array.make (Array.length oi + Array.length oo + 2) 0 in
        ignore (put_sorted pos oo k (put_sorted pos oi k 0));
        k)
      m.opts
  in
  Array.sort compare_ints opts;
  let len =
    Array.fold_left
      (fun s o -> s + Array.length o)
      (4 + Array.length m.ins + Array.length m.outs)
      opts
  in
  let k = Array.make len 0 in
  k.(0) <- m.shape;
  let at = put_sorted pos m.outs k (put_sorted pos m.ins k 1) in
  k.(at) <- Array.length opts;
  ignore
    (Array.fold_left
       (fun at o ->
         Array.blit o 0 k at (Array.length o);
         at + Array.length o)
       (at + 1) opts);
  k

let public_key pos p =
  let k = Array.make (Array.length p.pattrs + 2) 0 in
  k.(0) <- p.prank;
  ignore (put_sorted pos p.pattrs k 1);
  k

let sorted_keys key n =
  let k = Array.init n (fun i -> (key i, i)) in
  Array.sort (fun (x, _) (y, _) -> compare_ints x y) k;
  k

let cert_of g pos =
  { mkeys = sorted_keys (fun m -> module_key pos g.mods.(m)) (Array.length g.mods);
    pkeys = sorted_keys (fun j -> public_key pos g.pubs.(j)) (Array.length g.pubs) }

let compare_cert a b =
  let keys x y =
    let r = ref 0 and i = ref 0 in
    while !r = 0 && !i < Array.length x do
      r := compare_ints (fst x.(!i)) (fst y.(!i));
      incr i
    done;
    !r
  in
  let c = keys a.mkeys b.mkeys in
  if c <> 0 then c else keys a.pkeys b.pkeys

let positions g order =
  let pos = Array.make g.na 0 in
  Array.iteri (fun i a -> pos.(a) <- i) order;
  pos

(* {1 Twins}

   Two attributes are twins when swapping them is an automorphism: same
   cost, same module and public roles, and the set options of every
   module unchanged by the swap. Twins are pairwise interchangeable, so
   a cell of twins can be split into singletons in any order without
   branching. Twins share a root cell, so only those are examined. *)
let twin_classes g root =
  let na = g.na in
  let twin = Array.init na (fun a -> a) in
  let roles a =
    let l = ref [] and in_opts = ref false in
    for e = g.off.(a) to g.off.(a + 1) - 1 do
      let v = g.adj.(e) in
      if v >= g.first_opt && v < g.first_pub then in_opts := true
      else l := ((2 * v) + if g.wt.(e) > 1 then 1 else 0) :: !l
    done;
    (List.sort Int.compare !l, !in_opts)
  in
  let identity = Array.init na (fun a -> a) in
  let base = lazy (cert_of g identity) in
  let swap_ok a b =
    let pos = Array.copy identity in
    pos.(a) <- b;
    pos.(b) <- a;
    compare_cert (cert_of g pos) (Lazy.force base) = 0
  in
  let s = ref 0 in
  while !s < na do
    let e = root.cend.(!s) in
    if e - !s > 1 then begin
      let members =
        Array.map (fun a -> (roles a, a)) (Array.sub root.lab !s (e - !s))
      in
      Array.sort compare members;
      let i = ref 0 in
      while !i < Array.length members do
        let (r, _), _ = members.(!i) in
        let j = ref (!i + 1) in
        while !j < Array.length members && fst (fst members.(!j)) = r do
          incr j
        done;
        let group = Array.sub members !i (!j - !i) in
        let in_opts = Array.exists (fun ((_, o), _) -> o) group in
        let group = Array.map snd group in
        if not in_opts then Array.iter (fun a -> twin.(a) <- group.(0)) group
        else begin
          let reps = ref [] in
          Array.iter
            (fun a ->
              match List.find_opt (fun r -> swap_ok r a) !reps with
              | Some r -> twin.(a) <- r
              | None -> reps := a :: !reps)
            group
        end;
        i := !j
      done
    end;
    s := e
  done;
  twin

(* Split every attribute cell made of twins into singletons, then
   re-refine. Any order of a twin cell gives the same subtree up to an
   automorphism, so this prunes without branching. *)
let split_twins g sc twin p =
  let s = ref 0 in
  while !s < g.na do
    let e = p.cend.(!s) in
    if e - !s > 1 then begin
      let t = twin.(p.lab.(!s)) in
      let all = ref true in
      for i = !s + 1 to e - 1 do
        if twin.(p.lab.(i)) <> t then all := false
      done;
      if !all then begin
        for i = !s to e - 1 do
          p.cend.(i) <- i + 1;
          p.cell.(p.lab.(i)) <- i;
          push sc i
        done;
        p.acells <- p.acells + (e - !s - 1)
      end
    end;
    s := e
  done;
  refine g sc p

(* {1 The search} *)

type leaf = { order : int array; path : int array; mutable lcert : cert option }

let leaf_cert g l =
  match l.lcert with
  | Some c -> c
  | None ->
      let c = cert_of g (positions g l.order) in
      l.lcert <- Some c;
      c

(* Depth-first individualization-refinement below [root], keeping the
   leaf with the minimal certificate; certificates are label-invariant,
   so that leaf is canonical. Automorphisms found at equal leaves prune
   sibling subtrees by orbit; a leaf equal to an earlier one also
   returns straight to the node where their paths part. Every leaf
   counts toward the budget. Returns the chosen leaf's attribute order
   and whether the budget cut the search (then the first leaf stands,
   which is sound but not canonical). *)
let search g sc root =
  let na = g.na in
  let twin = twin_classes g root in
  let cert = leaf_cert g in
  let path = Array.make (na + 1) 0 in
  let first = ref None and best = ref None in
  let gens = ref [] and ngens = ref 0 in
  let leaves = ref 0 and cut = ref false in
  let parting a b =
    let k = ref 0 in
    while !k < Array.length a && !k < Array.length b && a.(!k) = b.(!k) do
      incr k
    done;
    !k
  in
  let at_leaf depth p =
    incr leaves;
    let l = { order = Array.sub p.lab 0 na; path = Array.sub path 0 depth; lcert = None } in
    let back =
      match (!first, !best) with
      | Some f, Some b ->
          let automorphism (src : leaf) =
            let gamma = Array.make na 0 in
            Array.iteri (fun i a -> gamma.(a) <- l.order.(i)) src.order;
            gens := gamma :: !gens;
            incr ngens;
            parting src.path l.path
          in
          let to_first = compare_cert (cert l) (cert f) in
          if to_first = 0 then automorphism f
          else
            let to_best = if b == f then to_first else compare_cert (cert l) (cert b) in
            if to_best = 0 then automorphism b
            else begin
              if to_best < 0 then best := Some l;
              max_int
            end
      | _ ->
          first := Some l;
          best := Some l;
          max_int
    in
    if !leaves >= leaf_budget then begin
      cut := true;
      -1
    end
    else back
  in
  let rec node depth p =
    if p.acells < na then split_twins g sc twin p;
    if p.acells = na then at_leaf depth p
    else begin
      let s = ref 0 in
      while p.cend.(!s) - !s = 1 do
        s := p.cend.(!s)
      done;
      let members = Array.sub p.lab !s (p.cend.(!s) - !s) in
      (* Orbits of the found automorphisms that fix this node, i.e.
         every attribute with its own cell here. *)
      let uf = Array.init na (fun a -> a) and seen = ref 0 in
      let rec find a = if uf.(a) = a then a else find uf.(a) in
      let fixes gamma =
        let ok = ref true and t = ref 0 in
        while !ok && !t < na do
          let e = p.cend.(!t) in
          if e - !t = 1 && gamma.(p.lab.(!t)) <> p.lab.(!t) then ok := false;
          t := e
        done;
        !ok
      in
      let pruned v explored =
        if !ngens > !seen then begin
          List.iteri
            (fun i gamma ->
              if i < !ngens - !seen && fixes gamma then
                Array.iter (fun a -> uf.(find a) <- find gamma.(a)) members)
            !gens;
          seen := !ngens
        end;
        List.exists (fun u -> find u = find v) explored
      in
      let rec loop i explored =
        if i = Array.length members then max_int
        else
          let v = members.(i) in
          if pruned v explored then loop (i + 1) explored
          else begin
            let q = copy p in
            push sc (individualize g q v);
            refine g sc q;
            path.(depth) <- v;
            let r = node (depth + 1) q in
            if r < depth then r else loop (i + 1) (v :: explored)
          end
      in
      loop 0 []
    end
  in
  ignore (node 0 root);
  match (!first, !best) with
  | Some f, Some b -> ((if !cut then f.order else b.order), !cut)
  | _ -> assert false

(* {1 Labelings} *)

(* The canonical relabeling behind [form], kept as a first-class value
   so solutions can be transported across the isomorphism that equal
   forms exhibit (the serve cache's hit path). *)
type labeling = {
  lab_form : string;
  pos : int array;  (* attribute id -> canonical label *)
  order : int array;  (* canonical label -> attribute id *)
  lab_cut : bool;
}

(* Decimal digits of a non-negative int, as [string_of_int] writes
   them, with no string built. *)
let rec add_digits b i =
  if i >= 10 then add_digits b (i / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))

let render g order c =
  let b = Buffer.create 1024 in
  let add_int i = if i >= 0 then add_digits b i else Buffer.add_string b (string_of_int i) in
  let cost q = Buffer.add_string b (Rat.to_string q) in
  let list k off =
    for t = off + 1 to off + k.(off) do
      if t > off + 1 then Buffer.add_char b ',';
      add_int k.(t)
    done;
    off + k.(off) + 1
  in
  Array.iteri
    (fun i a ->
      Buffer.add_char b 'a';
      add_int i;
      Buffer.add_char b '=';
      Buffer.add_string b g.cost_text.(a);
      Buffer.add_char b '\n')
    order;
  Array.iter
    (fun (k, m) ->
      Buffer.add_string b "mod I[";
      let t = list k 1 in
      Buffer.add_string b "] O[";
      let t = list k t in
      Buffer.add_string b "] ";
      (match g.mods.(m).card with
      | Some l ->
          Buffer.add_string b "card ";
          List.iteri
            (fun i (x, y) ->
              if i > 0 then Buffer.add_char b ',';
              add_int x;
              Buffer.add_char b ':';
              add_int y)
            l
      | None ->
          Buffer.add_string b "sets";
          let t = ref (t + 1) in
          for _ = 1 to k.(!t - 1) do
            Buffer.add_string b " (";
            t := list k !t;
            Buffer.add_char b '/';
            t := list k !t;
            Buffer.add_char b ')'
          done);
      Buffer.add_char b '\n')
    c.mkeys;
  (* Publics with identical lines are interchangeable (same cost, same
     canonical attributes), so slot-to-slot matching between equal forms
     is an isomorphism whatever their order. *)
  Array.iter
    (fun (k, j) ->
      Buffer.add_string b "pub ";
      cost g.pubs.(j).pcost;
      Buffer.add_string b " [";
      ignore (list k 1);
      Buffer.add_string b "]\n")
    c.pkeys;
  Buffer.contents b

let labeling inst =
  let g, colors, ncolors = build inst in
  let sc = scratch g.n in
  let root = initial_part g colors ncolors in
  let s = ref 0 in
  while !s < g.n do
    push sc !s;
    s := root.cend.(!s)
  done;
  refine g sc root;
  let order, cut =
    if root.acells = g.na then (Array.sub root.lab 0 g.na, false) else search g sc root
  in
  let pos = positions g order in
  let c = cert_of g pos in
  {
    lab_form = render g order c;
    pos;
    order;
    lab_cut = cut;
  }

let form_of_labeling l = l.lab_form
let digest_of_labeling l = Digest.to_hex (Digest.string l.lab_form)
let cut l = l.lab_cut
let form inst = (labeling inst).lab_form
let digest inst = digest_of_labeling (labeling inst)
let equal a b = String.equal (form a) (form b)

(* A cheap isomorphism invariant: sorted name-free summaries of the
   three node kinds, no refinement, no hashing. Unequal fingerprints
   refute isomorphism in O(n log n); equal fingerprints decide nothing.
   Callers use it to skip the labeling on the common obviously-changed
   case. *)
let fingerprint (inst : Instance.t) =
  let sorted_concat l = String.concat ";" (List.sort compare l) in
  let costs = List.sort compare (Array.to_list (Array.map Rat.to_string inst.Instance.costs)) in
  let mods =
    List.sort compare
      (Array.to_list
         (Array.map
            (fun (m : Instance.pmod) ->
              let req =
                match m.Instance.ireq with
                | Instance.Card l ->
                    "card "
                    ^ String.concat ","
                        (List.map
                           (fun (a, b) -> Printf.sprintf "%d:%d" a b)
                           (Requirement.normalize_card l))
                | Instance.Sets a ->
                    "sets "
                    ^ sorted_concat
                        (Array.to_list
                           (Array.map
                              (fun (i, o) ->
                                Printf.sprintf "%d/%d" (Array.length i) (Array.length o))
                              a))
              in
              Printf.sprintf "%d>%d %s" (Array.length m.Instance.ins)
                (Array.length m.Instance.outs) req)
            inst.Instance.pmods))
  in
  let pubs =
    List.sort compare
      (Array.to_list
         (Array.map
            (fun (p : Instance.pub) ->
              Printf.sprintf "%s#%d" (Rat.to_string p.Instance.pcost)
                (Array.length p.Instance.pattrs))
            inst.Instance.pubs))
  in
  String.concat "|" (costs @ mods @ pubs)

let transport ~src ~dst ids =
  if String.equal src.lab_form dst.lab_form then
    Some (List.map (fun i -> dst.order.(src.pos.(i))) ids)
  else None
