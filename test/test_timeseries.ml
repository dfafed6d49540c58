open Pi_telemetry

let mk () =
  let ts = Timeseries.create ~name:"t" in
  List.iter (fun (t, v) -> Timeseries.add ts ~time:t v)
    [ (0., 1.); (1., 2.); (2., 3.); (3., 10.) ];
  ts

let test_basics () =
  let ts = mk () in
  Alcotest.(check string) "name" "t" (Timeseries.name ts);
  Alcotest.(check int) "length" 4 (Timeseries.length ts);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "to_list"
    [ (0., 1.); (1., 2.); (2., 3.); (3., 10.) ]
    (Timeseries.to_list ts)

let test_backwards_time_rejected () =
  let ts = mk () in
  match Timeseries.add ts ~time:1. 5. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "backwards time accepted"

let test_window () =
  let ts = mk () in
  Alcotest.(check (list (float 1e-9))) "window [1,3)" [ 2.; 3. ]
    (Timeseries.values_between ts ~lo:1. ~hi:3.);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Timeseries.mean_between ts ~lo:1. ~hi:3.)

let test_empty_window_nan () =
  let ts = mk () in
  Alcotest.(check bool) "nan" true
    (Float.is_nan (Timeseries.mean_between ts ~lo:100. ~hi:200.))

let test_min_max_last () =
  let ts = mk () in
  Alcotest.(check (float 1e-9)) "min" 1. (Timeseries.min_value ts);
  Alcotest.(check (float 1e-9)) "max" 10. (Timeseries.max_value ts);
  Alcotest.(check (option (float 1e-9))) "last" (Some 10.) (Timeseries.last ts)

let test_empty_series () =
  let ts = Timeseries.create ~name:"e" in
  Alcotest.(check (option (float 1e-9))) "last none" None (Timeseries.last ts);
  Alcotest.(check bool) "min nan" true (Float.is_nan (Timeseries.min_value ts))

let test_percentile () =
  let values = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.(check (float 1e-9)) "p50" 5. (Timeseries.percentile values 50.);
  Alcotest.(check (float 1e-9)) "p100" 10. (Timeseries.percentile values 100.);
  Alcotest.(check (float 1e-9)) "p1" 1. (Timeseries.percentile values 1.);
  Alcotest.(check bool) "empty nan" true
    (Float.is_nan (Timeseries.percentile [] 50.))

let test_percentile_invalid () =
  match Timeseries.percentile [ 1. ] 101. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p out of range should raise"

let suite =
  [ Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "backwards time rejected" `Quick test_backwards_time_rejected;
    Alcotest.test_case "window" `Quick test_window;
    Alcotest.test_case "empty window nan" `Quick test_empty_window_nan;
    Alcotest.test_case "min/max/last" `Quick test_min_max_last;
    Alcotest.test_case "empty series" `Quick test_empty_series;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile invalid" `Quick test_percentile_invalid ]
