(* Facade over [Tpan_check]: resolve a query's net and a delivery
   transition, then run the three-way differential check. *)

module Check = Tpan_check.Check
module Gen = Tpan_check.Gen
module Sampler = Tpan_check.Sampler
module Shrink = Tpan_check.Shrink

let default_delivery (net : Query.net) tpn =
  match net with
  | Model { name; _ } -> (
    match Models.find name with
    | Some m -> ( match m.Models.deliveries with d :: _ -> Some d | [] -> None)
    | None -> None)
  | File _ | Source _ -> (
    (* a lone zero-frequency-conflict partner (the stop-and-wait "ack
       beats timeout" shape) is a good guess; otherwise the caller must
       say which transition completes a delivery *)
    let net = Tpan_core.Tpn.net tpn in
    let module Net = Tpan_petri.Net in
    match
      List.filter
        (fun t ->
          (not (Tpan_core.Tpn.is_zero_frequency tpn t))
          && List.exists
               (fun t' ->
                 t' <> t
                 && Tpan_core.Tpn.is_zero_frequency tpn t'
                 && Net.structurally_conflicting net t t')
               (Net.transitions net))
        (Net.transitions net)
    with
    | [ t ] -> Some (Net.trans_name net t)
    | _ -> None)

let check_source ?config ?delivery (net : Query.net) =
  match Query.load net with
  | Error e -> Error e
  | Ok tpn -> (
    let name =
      match net with
      | File path -> Filename.basename path
      | Model { name; _ } -> name
      | Source _ -> Tpan_petri.Net.name (Tpan_core.Tpn.net tpn)
    in
    let delivery =
      match delivery with Some d -> Some d | None -> default_delivery net tpn
    in
    match delivery with
    | None ->
      Error
        (Error.Invalid_input
           "cannot infer the delivery transition for this net; pass --delivery")
    | Some d -> Check.check_tpn ?config ~name ~delivery:d tpn)
