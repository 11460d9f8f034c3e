type t = { name : string; references : Attr_set.t; weight : float }

let make ?(weight = 1.0) ~name ~references () =
  if Attr_set.is_empty references then
    invalid_arg (Printf.sprintf "Query.make: %s references no attribute" name);
  if not (Float.is_finite weight) then
    invalid_arg (Printf.sprintf "Query.make: %s has non-finite weight" name);
  if weight <= 0.0 then
    invalid_arg (Printf.sprintf "Query.make: %s has non-positive weight" name);
  { name; references; weight }

let name q = q.name

let references q = q.references

let weight q = q.weight

let references_attr q i = Attr_set.mem i q.references

let equal a b =
  a.name = b.name
  && Attr_set.equal a.references b.references
  && a.weight = b.weight

let pp ppf q =
  Format.fprintf ppf "%s%a%s" q.name Attr_set.pp q.references
    (if q.weight = 1.0 then "" else Printf.sprintf " x%g" q.weight)
