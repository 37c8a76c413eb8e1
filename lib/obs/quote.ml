let limit = 64

let quote s =
  let n = String.length s in
  if n <= limit then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 limit) n
