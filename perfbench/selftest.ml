(* The benchmark's own tests: each check must catch a fault planted at a
   small scale.  Run with: python3 perfbench/run.py --selftest *)

open Common

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "PASS" else "FAIL") name;
  if not ok then incr failures

let () =
  (* explore: the sequential ll-async list breaks under a schedule *)
  let o = Explore.explore_one "flat" "ll-async" in
  let failed, problems = Explore.check ~reference:[] [ o ] in
  expect "explore: ll-async reports a violation" (failed = 1 && problems <> []);
  let o = Explore.explore_one "flat" "bst-pathcas" in
  expect "explore: bst-pathcas explores cleanly" (Explore.check ~reference:[ o ] [ o ] = (0, []));
  let off = { o with Explore.steps = o.Explore.steps + 1 } in
  expect "explore: a step count off by one from the other model fails"
    (snd (Explore.check ~reference:[ o ] [ off ]) <> []);
  (* native-sets: the ledger must match the structure *)
  let tr = Native_sets.trial ~seed:1 ~ops:2_000 "ht-clht-lb" 2 in
  expect "native-sets: an honest ledger passes" (tr.Native_sets.problems = [] && tr.failed = 0);
  let tr =
    Native_sets.trial ~seed:1 ~ops:2_000 "ht-clht-lb" 1 ~tamper:(fun l ->
        l.Native_sets.init.(7) <- l.Native_sets.init.(7) + 1)
  in
  expect "native-sets: a ledger with one count altered fails" (tr.Native_sets.problems <> [] && tr.failed > 0);
  (* kv-service: every issued request must be applied and counted *)
  let r = Ascy_service.Service_run.run ~seed:1 (Kv_service.scenario Probe) in
  expect "kv-service: an honest result passes" (Kv_service.check r = (0, []));
  let dropped = { r with Ascy_service.Service_run.ops_applied = r.ops_applied - 1 } in
  let not_applied, problems = Kv_service.check dropped in
  expect "kv-service: a result with one request dropped fails" (not_applied = 1 && problems <> []);
  (* virtual outputs must repeat byte for byte *)
  let round virt =
    { setup_s = 0.; wall_s = 0.; attempted = 1; failed = 0; problems = []; rates = []; layer = []; virt }
  in
  expect "virtual outputs: identical rounds pass" (virt_problems [ round "a=1"; round "a=1" ] = []);
  expect "virtual outputs: a differing round fails" (virt_problems [ round "a=1"; round "a=2" ] <> []);
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
