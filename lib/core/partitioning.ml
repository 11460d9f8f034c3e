type t = { n : int; groups : Attr_set.t array }
(* Invariants: groups are non-empty, pairwise disjoint, union = full n,
   sorted by minimum element. *)

(* The isolated lowest bit orders groups exactly as their minimum
   elements do: member bits stop at 61, so it is always positive. *)
let lowest_bit g =
  let m = Attr_set.to_mask g in
  m land (-m)

let by_min_elt a b = Int.compare (lowest_bit a) (lowest_bit b)

let of_groups ~n groups =
  if n <= 0 || n > Attr_set.max_attributes then
    invalid_arg (Printf.sprintf "Partitioning.of_groups: bad n = %d" n);
  List.iter
    (fun g ->
      if Attr_set.is_empty g then
        invalid_arg "Partitioning.of_groups: empty group")
    groups;
  let union = ref Attr_set.empty and sum = ref 0 in
  List.iter
    (fun g ->
      union := Attr_set.union !union g;
      sum := !sum + Attr_set.cardinal g)
    groups;
  if not (Attr_set.equal !union (Attr_set.full n)) || !sum <> n then
    invalid_arg
      "Partitioning.of_groups: groups must form a disjoint cover of 0..n-1";
  let arr = Array.of_list groups in
  Array.sort by_min_elt arr;
  { n; groups = arr }

let of_assignment assignment =
  let n = Array.length assignment in
  if n = 0 then invalid_arg "Partitioning.of_assignment: empty array";
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i label ->
      let cur =
        match Hashtbl.find_opt tbl label with
        | Some s -> s
        | None -> Attr_set.empty
      in
      Hashtbl.replace tbl label (Attr_set.add i cur))
    assignment;
  let groups = Hashtbl.fold (fun _ g acc -> g :: acc) tbl [] in
  of_groups ~n groups

let row n = of_groups ~n [ Attr_set.full n ]

let column n =
  of_groups ~n (List.init n (fun i -> Attr_set.singleton i))

let attribute_count p = p.n

let group_count p = Array.length p.groups

let groups p = Array.to_list p.groups

let group_array p = Array.copy p.groups

let group_of p i =
  if i < 0 || i >= p.n then
    invalid_arg (Printf.sprintf "Partitioning.group_of: %d out of range" i);
  let k = Array.length p.groups in
  let rec go gi =
    if gi >= k then assert false
    else if Attr_set.mem i p.groups.(gi) then p.groups.(gi)
    else go (gi + 1)
  in
  go 0

let group_index_of p i =
  if i < 0 || i >= p.n then
    invalid_arg
      (Printf.sprintf "Partitioning.group_index_of: %d out of range" i);
  let k = Array.length p.groups in
  let rec go gi =
    if gi >= k then assert false
    else if Attr_set.mem i p.groups.(gi) then gi
    else go (gi + 1)
  in
  go 0

let iter_groups f p = Array.iter f p.groups

let mem_group p g = Array.exists (fun h -> Attr_set.equal h g) p.groups

let referenced_group_count p refs =
  Array.fold_left
    (fun acc g -> if Attr_set.intersects g refs then acc + 1 else acc)
    0 p.groups

let referenced_group_array p refs =
  let out = Array.make (referenced_group_count p refs) Attr_set.empty in
  let j = ref 0 in
  for i = 0 to Array.length p.groups - 1 do
    if Attr_set.intersects p.groups.(i) refs then begin
      out.(!j) <- p.groups.(i);
      incr j
    end
  done;
  out

let referenced_groups p refs = Array.to_list (referenced_group_array p refs)

(* One ordered walk over both canonical arrays: a group of [q] is a group
   of [p] exactly when [p] has an equal group at the same minimum. *)
let changed_attrs p q =
  let kp = Array.length p.groups and kq = Array.length q.groups in
  let rec go i j acc =
    if j >= kq then acc
    else
      let c = if i >= kp then 1 else by_min_elt p.groups.(i) q.groups.(j) in
      if c < 0 then go (i + 1) j acc
      else if c = 0 && Attr_set.equal p.groups.(i) q.groups.(j) then
        go (i + 1) (j + 1) acc
      else go (if c = 0 then i + 1 else i) (j + 1) (Attr_set.union acc q.groups.(j))
  in
  go 0 0 Attr_set.empty

let find_group_index p g =
  let k = Array.length p.groups in
  let rec go i =
    if i >= k then
      invalid_arg
        (Printf.sprintf "Partitioning: %s is not a group" (Attr_set.to_string g))
    else if Attr_set.equal p.groups.(i) g then i
    else go (i + 1)
  in
  go 0

(* [merge_groups] and [split_group] start from validated groups, so the
   result is a disjoint cover by construction; both only need to keep
   the array in canonical order. *)

let merge_groups p g1 g2 =
  let i1 = find_group_index p g1 and i2 = find_group_index p g2 in
  if i1 = i2 then invalid_arg "Partitioning.merge_groups: same group";
  (* The union takes the earlier slot: its minimum is the earlier
     group's. Everything after the later slot shifts down by one. *)
  let lo = min i1 i2 and hi = max i1 i2 in
  let k = Array.length p.groups in
  let groups =
    Array.init (k - 1) (fun i ->
        if i = lo then Attr_set.union g1 g2
        else if i < hi then p.groups.(i)
        else p.groups.(i + 1))
  in
  { p with groups }

let split_group p g sub =
  let gi = find_group_index p g in
  if Attr_set.is_empty sub then
    invalid_arg "Partitioning.split_group: empty subset";
  if not (Attr_set.subset sub g) then
    invalid_arg "Partitioning.split_group: not a subset of the group";
  if Attr_set.equal sub g then
    invalid_arg "Partitioning.split_group: subset equals the group";
  (* The part holding [g]'s minimum keeps slot [gi]; the other part
     goes in front of the first later group with a larger minimum. *)
  let rest = Attr_set.diff g sub in
  let stay, moved =
    if by_min_elt sub rest < 0 then (sub, rest) else (rest, sub)
  in
  let k = Array.length p.groups in
  let at = ref (gi + 1) in
  while !at < k && by_min_elt p.groups.(!at) moved < 0 do
    incr at
  done;
  let at = !at in
  let groups =
    Array.init (k + 1) (fun i ->
        if i = gi then stay
        else if i < at then p.groups.(i)
        else if i = at then moved
        else p.groups.(i - 1))
  in
  { p with groups }

(* Mixes every group mask (a multiply-xorshift step per group), so
   group arrays that differ in any group, however late, hash apart;
   [Hashtbl.hash] would stop after ten groups. *)
let hash_groups ~seed groups =
  let h = ref seed in
  for i = 0 to Array.length groups - 1 do
    let x = (!h lxor Attr_set.to_mask groups.(i)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let equal a b =
  a.n = b.n
  && Array.length a.groups = Array.length b.groups
  && Array.for_all2 Attr_set.equal a.groups b.groups

let compare a b =
  let c = compare a.n b.n in
  if c <> 0 then c
  else
    let c = compare (Array.length a.groups) (Array.length b.groups) in
    if c <> 0 then c
    else
      let rec go i =
        if i >= Array.length a.groups then 0
        else
          let c = Attr_set.compare a.groups.(i) b.groups.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let is_refinement fine coarse =
  fine.n = coarse.n
  && Array.for_all
       (fun g ->
         Array.exists (fun cg -> Attr_set.subset g cg) coarse.groups)
       fine.groups

let of_names table name_groups =
  let groups = List.map (Table.attr_set_of_names table) name_groups in
  of_groups ~n:(Table.attribute_count table) groups

let pp ppf p =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '|')
       Attr_set.pp)
    (Array.to_seq p.groups)

let pp_named table ppf p =
  let pp_group ppf g =
    Format.pp_print_string ppf
      (String.concat "," (Table.names_of_attr_set table g))
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
       pp_group)
    (Array.to_seq p.groups)

let to_string p = Format.asprintf "%a" pp p
