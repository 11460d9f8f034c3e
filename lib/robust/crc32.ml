(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   Small and dependency-free; the journal needs integrity checks, not
   cryptography. *)

(* Built eagerly at module initialisation: forcing a [lazy] from two
   domains at once raises [CamlinternalLazy.Undefined], and daemon
   connections on different domains can make their first journal append
   together. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let update crc s =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch ->
      crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF

let string s = update 0 s

let to_hex crc = Printf.sprintf "%08x" (crc land 0xFFFFFFFF)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 && v <= 0xFFFFFFFF -> Some v
    | _ -> None
