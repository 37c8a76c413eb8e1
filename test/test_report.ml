(* Smoke tests for the report generator: the right sections appear with the
   right headline numbers, for concrete, symbolic, and degenerate nets. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Tpn = Tpan_core.Tpn
module Report = Tpan_perf.Report
module SW = Tpan_protocols.Stopwait
module PL = Tpan_protocols.Pipeline

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let render f tpn = Format.asprintf "%a" (fun fmt tpn -> f fmt tpn) tpn

let test_concrete_report () =
  let tpn = SW.concrete SW.paper_params in
  let out = render (Report.concrete ~events:[ "t6"; "t7" ]) tpn in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains out needle))
    [
      "8 places, 9 transitions";
      "P-invariant: p1 + p4 + p7 = 1";
      "minimal siphons";
      "18 states";
      "mean cycle time: 316.461";
      "completion rate t7";
      "350.649307";
      "time to first t6 completion: 173.936842";
    ]

let test_symbolic_report () =
  let tpn = SW.symbolic () in
  let out = render (Report.symbolic ~events:[ "t6" ]) tpn in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains out needle))
    [
      "timing constraints";
      "E(t3) > F(t8) + F(t5) + F(t6)";
      "18 states";
      "justified by";
      "completion rate t7";
      "f(t4)";
      "time to first t6 completion =";
    ]

let test_deterministic_report () =
  let tpn = PL.concrete PL.default_params in
  let out = render (Report.concrete ?events:None) tpn in
  Alcotest.(check bool) "reports the period as the mean cycle time" true
    (contains out "mean cycle time: 35");
  Alcotest.(check bool) "reports the delivery rate" true (contains out "completion rate deliver")

let suite =
  ( "report",
    [
      Alcotest.test_case "concrete report" `Quick test_concrete_report;
      Alcotest.test_case "symbolic report" `Quick test_symbolic_report;
      Alcotest.test_case "deterministic report" `Quick test_deterministic_report;
    ] )
