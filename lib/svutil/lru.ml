(* Bounded LRU map: a hash table over an intrusive doubly-linked list
   in recency order. All operations are O(1); [find] promotes its hit
   to most-recently-used, and [add] beyond capacity evicts from the
   cold end. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
  mutable evictions : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let evictions t = t.evictions

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let is_head t n = match t.head with Some h -> h == n | None -> false

let promote t n =
  if not (is_head t n) then begin
    unlink t n;
    push_front t n
  end

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
      promote t n;
      Some n.value

let mem t key = Hashtbl.mem t.table key

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.evictions <- t.evictions + 1

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some n ->
      n.value <- value;
      promote t n
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let n = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key n;
      push_front t n

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table key

let to_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, n.value) :: acc) n.next
  in
  go [] t.head
