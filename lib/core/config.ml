type hardening_policy = Optimize | Fixed_min | Fixed_max

type t = {
  max_iterations : int;
  kmax : int;
  slack : Ftes_sched.Scheduler.slack_mode;
  bus : Ftes_sched.Bus.policy;
  hardening : hardening_policy;
  certify : bool;
  memoize : bool;
}

let make ?(max_iterations = 120) ?(kmax = 12)
    ?(slack = Ftes_sched.Scheduler.Shared) ?(bus = Ftes_sched.Bus.Fcfs)
    ?(hardening = Optimize) ?(certify = false) ?(memoize = true) () =
  if max_iterations < 0 then invalid_arg "Config.make: negative max_iterations";
  if kmax < 0 then invalid_arg "Config.make: negative kmax";
  { max_iterations; kmax; slack; bus; hardening; certify; memoize }

let default = make ()

(* Builders, not record updates, are the supported way to derive
   configurations: construction sites survive new knobs unchanged. *)
let with_max_iterations max_iterations t = { t with max_iterations }

let with_kmax kmax t = { t with kmax }

let with_slack slack t = { t with slack }

let with_bus bus t = { t with bus }

let with_hardening hardening t = { t with hardening }

let with_certify certify t = { t with certify }

let with_memoize memoize t = { t with memoize }

let min_strategy = with_hardening Fixed_min default

let max_strategy = with_hardening Fixed_max default

let policy_name = function
  | Optimize -> "OPT"
  | Fixed_min -> "MIN"
  | Fixed_max -> "MAX"
