//! Reproduce the runtime-overhead measurement (Table IV): the time of a full
//! operator deployment sent as wire bytes (YAML and JSON) to the API server
//! directly and through the KubeFence proxy, the tokenize cost per wire byte
//! of each format, and the proxy's resource footprint. Every figure is
//! measured in this run unless labelled as the paper's.
//!
//! ```bash
//! cargo run --release --example overhead
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use k8s_apiserver::{ApiRequest, ApiServer, RequestHandler};
use kf_workloads::{json_twin, DeploymentDriver, Operator};
use kf_yaml::events::Tokenizer;
use kf_yaml::json::JsonTokenizer;
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator};

const REPETITIONS: usize = 100;

/// Rounds of the tokenize measurement; the two formats alternate in each.
const TOKENIZE_ROUNDS: usize = 41;

/// Drain a tokenizer over every body; returns the events read.
fn tokenize(bodies: &[String], json: bool) -> usize {
    let mut events = 0;
    for body in bodies {
        if json {
            let mut tokenizer = JsonTokenizer::new(body);
            while let Some(event) = tokenizer.next_event().expect("chart bodies tokenize") {
                black_box(event);
                events += 1;
            }
        } else {
            let mut tokenizer = Tokenizer::new(body).expect("construction never fails");
            while let Some(event) = tokenizer.next_event().expect("chart bodies tokenize") {
                black_box(event);
                events += 1;
            }
        }
    }
    events
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Send a whole deployment through `handler`; every request must succeed.
fn deployment_time<H: RequestHandler>(requests: &[ApiRequest], handler: &H) -> Duration {
    let started = Instant::now();
    for request in requests {
        let response = handler.handle(request);
        assert!(response.is_success(), "{}", response.message);
    }
    started.elapsed()
}

fn mean_and_stddev(samples: &[f64]) -> (f64, f64) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    (mean, var.sqrt())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Deployment time, direct vs through KubeFence (Table IV) ==");
    println!("(in-process, wire-byte bodies, mean±stddev of {REPETITIONS} deployments)");

    let mut workloads = Vec::new();
    for operator in Operator::ALL {
        let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
            .generate(&operator.chart())?;
        // The driver speaks YAML; the JSON deployment is the same objects
        // from a JSON-speaking client.
        let driver = DeploymentDriver::new(operator);
        let yaml = driver.requests();
        let json: Vec<ApiRequest> = yaml
            .iter()
            .zip(driver.objects())
            .map(|(request, object)| json_twin(request, object))
            .collect();
        workloads.push((operator, validator, [yaml, json]));
    }

    for (index, format) in ["YAML", "JSON"].into_iter().enumerate() {
        println!(
            "\n{:<12} {:>5} {:>16} {:>18} {:>20} {:>16}",
            format!("{format} bodies"),
            "reqs",
            "direct (µs)",
            "KubeFence (µs)",
            "difference",
            "validation share"
        );
        for (operator, validator, requests) in &workloads {
            let requests = &requests[index];

            let mut direct_samples = Vec::new();
            let mut proxied_samples = Vec::new();
            let mut validation = Duration::ZERO;
            for _ in 0..REPETITIONS {
                let server = ApiServer::new().with_admin(&operator.user());
                direct_samples.push(deployment_time(requests, &server).as_secs_f64() * 1e6);

                let proxy = EnforcementProxy::new(
                    ApiServer::new().with_admin(&operator.user()),
                    validator.clone(),
                );
                proxied_samples.push(deployment_time(requests, &proxy).as_secs_f64() * 1e6);
                validation += proxy.stats().validation_time();
            }
            let (direct_mean, direct_std) = mean_and_stddev(&direct_samples);
            let (proxied_mean, proxied_std) = mean_and_stddev(&proxied_samples);
            println!(
                "{:<12} {:>5} {:>10.1}±{:<5.1} {:>12.1}±{:<5.1} {:>9.1} µs ({:>5.1}%) {:>15.1}%",
                operator.name(),
                requests.len(),
                direct_mean,
                direct_std,
                proxied_mean,
                proxied_std,
                proxied_mean - direct_mean,
                100.0 * (proxied_mean - direct_mean) / direct_mean,
                100.0 * validation.as_secs_f64() * 1e6 / proxied_samples.iter().sum::<f64>(),
            );
        }
    }
    println!("\nvalidation share = ProxyStats::validation_time() / time through KubeFence.");
    println!("paper (Table IV, RTT measured on a two-node cluster): +26.6 ms to +84.6 ms,");
    println!("i.e. +12.6% to +26.6% over RBAC-only baselines of 168-386 ms.");
    println!("The figures above contain no network hop, so they are not an RTT: a true");
    println!("RTT waits for the wire front end (ROADMAP, parked).");

    // The reader's share of that cost: the same manifests, tokenized alone.
    println!("\n== Tokenize cost per wire byte, the 50 manifests in each format ==");
    let bodies: Vec<Vec<String>> = (0..2)
        .map(|index| {
            let requests = workloads.iter().flat_map(|(.., requests)| &requests[index]);
            let payload = |request: &ApiRequest| String::from_utf8(request.payload().to_vec());
            requests.map(payload).collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let mut ns_per_byte = [Vec::new(), Vec::new()];
    for _ in 0..TOKENIZE_ROUNDS {
        for (index, bodies) in bodies.iter().enumerate() {
            let bytes: usize = bodies.iter().map(String::len).sum();
            let started = Instant::now();
            assert!(tokenize(bodies, index == 1) > 0);
            ns_per_byte[index].push(started.elapsed().as_nanos() as f64 / bytes as f64);
        }
    }
    let [yaml, json] = ns_per_byte.map(|mut samples| median(&mut samples));
    println!("(median of {TOKENIZE_ROUNDS} interleaved rounds)");
    println!(
        "YAML {yaml:.2} ns/B, JSON {json:.2} ns/B, YAML / JSON {:.2}",
        yaml / json
    );

    // Resource footprint of the proxy (§VI-E): validator size stands in for
    // the paper's CPU/memory counters.
    let (operator, validator, _) = workloads
        .iter()
        .find(|(operator, ..)| *operator == Operator::Sonarqube)
        .expect("Operator::ALL includes SonarQube");
    println!(
        "\nproxy footprint: the {} validator serializes to {:.1} KiB covering {} resource kinds",
        operator.name(),
        validator.to_yaml().len() as f64 / 1024.0,
        validator.kinds().len()
    );
    Ok(())
}
