type t = int

let max_attributes = Sys.int_size - 1

let check i =
  if i < 0 || i >= max_attributes then
    invalid_arg
      (Printf.sprintf "Attr_set: position %d out of range [0..%d]" i
         (max_attributes - 1))

let empty = 0

let is_empty s = s = 0

let singleton i =
  check i;
  1 lsl i

let add i s =
  check i;
  s lor (1 lsl i)

let remove i s =
  check i;
  s land lnot (1 lsl i)

let mem i s = i >= 0 && i < max_attributes && s land (1 lsl i) <> 0

(* SWAR population count. Masks are non-negative, so bit 62 (the sign
   bit of a 63-bit int) is always clear and the 62-bit constants below
   cover every member bit. The per-byte sums are at most 8, so the final
   multiply gathers their total (at most 62) in bits 56..62 without
   carries between bytes. *)
let popcount n =
  let n = n - ((n lsr 1) land 0x1555555555555555) in
  let n = (n land 0x3333333333333333) + ((n lsr 2) land 0x3333333333333333) in
  let n = (n + (n lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (n * 0x0101010101010101) lsr 56

let cardinal s = popcount s

let union a b = a lor b

let inter a b = a land b

let diff a b = a land lnot b

let subset a b = a land lnot b = 0

let disjoint a b = a land b = 0

let intersects a b = a land b <> 0

let equal (a : int) (b : int) = a = b

let compare (a : int) (b : int) = Stdlib.compare a b

let hash (s : int) = Hashtbl.hash s

let of_list l = List.fold_left (fun s i -> add i s) empty l

let full n =
  if n < 0 || n > max_attributes then
    invalid_arg (Printf.sprintf "Attr_set.full: %d out of range" n);
  if n = 0 then 0 else (1 lsl n) - 1

(* Index of the lowest set bit; [s] must be non-zero. Isolating the bit
   ([s land (-s)]) and counting the ones below it keeps this branch-free. *)
let lowest_bit_index s = popcount ((s land (-s)) - 1)

let min_elt s = if s = 0 then raise Not_found else lowest_bit_index s

(* Smear the highest set bit into every lower position; the count of ones
   is then one more than its index. *)
let max_elt s =
  if s = 0 then raise Not_found
  else
    let s = s lor (s lsr 1) in
    let s = s lor (s lsr 2) in
    let s = s lor (s lsr 4) in
    let s = s lor (s lsr 8) in
    let s = s lor (s lsr 16) in
    let s = s lor (s lsr 32) in
    popcount s - 1

let choose = min_elt

let iter f s =
  let rec go s =
    if s <> 0 then begin
      let i = lowest_bit_index s in
      f i;
      go (s land (s - 1))
    end
  in
  go s

let fold f s acc =
  let rec go s acc =
    if s = 0 then acc
    else
      let i = lowest_bit_index s in
      go (s land (s - 1)) (f i acc)
  in
  go s acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let for_all p s = fold (fun i acc -> acc && p i) s true

let exists p s = fold (fun i acc -> acc || p i) s false

let filter p s = fold (fun i acc -> if p i then add i acc else acc) s empty

let subsets s =
  let elements = to_list s in
  List.fold_left
    (fun acc i -> List.rev_append (List.rev_map (fun sub -> add i sub) acc) acc)
    [ empty ] elements

let to_mask s = s

let of_mask m =
  if m < 0 then invalid_arg "Attr_set.of_mask: negative mask";
  m

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (to_list s)

let to_string s = Format.asprintf "%a" pp s
