//! Malformed requests get a typed rejection at the scheduler boundary.
//!
//! One named regression test per input that used to hang, panic or
//! corrupt a report: a lone NaN arrival (spun `serve_online` forever), a
//! NaN among valid arrivals (panicked in the arrival sort), an infinite
//! arrival ("completed" with NaN latency), and a token count whose
//! `prompt + output` sum overflows (wrapped past the oversize check). Each
//! case runs through `serve_online` and through a two-replica
//! `FleetRouter::run`, and checks that every request resolves exactly once
//! and that every report field is finite.

use zipserv::prelude::*;

fn engine() -> ServingEngine {
    ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .build()
}

/// Every time-valued field of `r` is finite; returns how each request
/// resolved: `None` for a completion, the reason for a rejection.
fn finite_outcomes(r: &ScheduleReport) -> Vec<(u64, Option<RejectReason>)> {
    let rob = &r.robustness;
    let fields = [r.duration_s, r.throughput_tps, r.comm_s, rob.stall_s];
    let more = [rob.refetch_s, rob.downtime_s, rob.time_to_recover_s];
    let per_request = r
        .completions
        .iter()
        .flat_map(|c| [c.queue_s, c.latency_s, c.ttft_s]);
    for x in fields.into_iter().chain(more).chain(per_request) {
        assert!(x.is_finite(), "non-finite report field {x}");
    }
    let done = r.completions.iter().map(|c| (c.id, None));
    done.chain(r.rejections.iter().map(|j| (j.id, Some(j.reason))))
        .collect()
}

/// Serves `arrivals` on one replica and on a two-replica fleet, and checks
/// that each request resolves exactly once — the `bad` ones with their
/// expected rejection, every other one by completing.
fn check(arrivals: Vec<Request>, bad: &[(u64, RejectReason)]) {
    let mut expect: Vec<(u64, Option<RejectReason>)> = arrivals
        .iter()
        .map(|r| (r.id, bad.iter().find(|b| b.0 == r.id).map(|b| b.1)))
        .collect();
    expect.sort_by_key(|e| e.0);

    let mut got = finite_outcomes(&engine().serve_online(arrivals.clone()));
    got.sort_by_key(|e| e.0);
    assert_eq!(got, expect, "replica outcomes");

    let fleet = FleetRouter::new(RoundRobin::default())
        .with_replicas(&engine(), 2)
        .run(arrivals);
    assert!(fleet.duration_s().is_finite() && fleet.throughput_tps().is_finite());
    let mut got: Vec<_> = fleet.per_replica.iter().flat_map(finite_outcomes).collect();
    got.extend(fleet.rejections.iter().map(|j| (j.id, Some(j.reason))));
    got.sort_by_key(|e| e.0);
    assert_eq!(got, expect, "fleet outcomes");
}

#[test]
fn lone_nan_arrival_is_rejected_not_spun_on() {
    check(
        vec![Request::new(7, f64::NAN, 128, 16)],
        &[(7, RejectReason::InvalidRequest)],
    );
}

#[test]
fn nan_among_valid_arrivals_is_rejected_not_panicked_on() {
    let mut arrivals = poisson_arrivals(4.0, 6, 128, 16, 3);
    arrivals.insert(3, Request::new(99, f64::NAN, 128, 16));
    check(arrivals, &[(99, RejectReason::InvalidRequest)]);
}

#[test]
fn infinite_arrival_is_rejected_not_completed() {
    let mut arrivals = poisson_arrivals(4.0, 6, 128, 16, 5);
    arrivals.push(Request::new(98, f64::INFINITY, 128, 16));
    arrivals.push(Request::new(97, f64::NEG_INFINITY, 128, 16));
    check(
        arrivals,
        &[
            (98, RejectReason::InvalidRequest),
            (97, RejectReason::InvalidRequest),
        ],
    );
}

#[test]
fn overflowing_token_sum_is_rejected_as_oversized() {
    let mut arrivals = poisson_arrivals(4.0, 6, 128, 16, 7);
    arrivals.insert(2, Request::new(96, 0.1, u64::MAX - 100, 1000));
    check(arrivals, &[(96, RejectReason::Oversized)]);
}
