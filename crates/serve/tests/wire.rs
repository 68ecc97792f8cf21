//! The verify frame's image over a live daemon: a base64 string of the
//! pixels' `f32` bits or an array of numbers, the same margins either way,
//! and a typed error on a surviving connection for every malformed string.

use std::path::PathBuf;
use std::time::Duration;

use gpupoly_device::CpuSimBackend;
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::{store, Network};
use gpupoly_serve::protocol::{ErrorCode, Reply, Request};
use gpupoly_serve::{Client, Server, ServerConfig, ServerHandle};
use serde::{Serialize, Value};

/// Deterministic dense ReLU net: `4 → 6 (ReLU) → 3`.
fn make_net() -> Network<f32> {
    let mix = |i: usize, s: u64| {
        ((((i as u64 + 11) * (s + 37)) * 2654435761 % 1999) as f32 / 999.0 - 1.0) * 0.4
    };
    NetworkBuilder::new_flat(4)
        .dense_flat(
            6,
            (0..24).map(|i| mix(i, 5)).collect(),
            (0..6).map(|i| mix(i, 10) * 0.3).collect(),
        )
        .relu()
        .dense_flat(3, (0..18).map(|i| mix(i, 14)).collect(), vec![0.0; 3])
        .build()
        .expect("valid net")
}

fn boot(tag: &str) -> (PathBuf, ServerHandle<CpuSimBackend>, Client) {
    let dir = std::env::temp_dir().join(format!("gpupoly-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    store::save(&dir, "tiny", &make_net()).unwrap();
    let handle = Server::<CpuSimBackend>::bind("127.0.0.1:0", ServerConfig::new(&dir))
        .expect("bind")
        .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (dir, handle, client)
}

/// A verify (or verify-complete) frame whose `"image"` is `image` verbatim.
fn frame(kind: &str, image: Value) -> String {
    let frame = Value::obj([
        ("type", Value::Str(kind.into())),
        ("model", Value::Str("tiny".into())),
        ("image", image),
        ("label", Value::Num(0.0)),
        ("eps", Value::Num(0.01)),
    ]);
    serde_json::to_string(&frame).unwrap()
}

/// The `"image"` value `Request`'s own serializer writes for `image`.
fn wire_image(image: &[f32]) -> Value {
    let request = Request::Verify {
        model: "tiny".into(),
        image: image.to_vec(),
        label: 0,
        eps: 0.01,
    };
    request.to_value().field("image").unwrap().clone()
}

fn expect_error(client: &mut Client, line: &str, want: ErrorCode) -> String {
    match client.send_raw(line).unwrap() {
        Reply::Error { code, message } => {
            assert_eq!(code, want, "{line}: {message}");
            message
        }
        other => panic!("{line}: expected {want}, got {other:?}"),
    }
}

#[test]
fn malformed_base64_images_are_bad_requests_on_a_surviving_connection() {
    let (dir, handle, mut client) = boot("malformed");
    // One pixel is "AACAPw==", so each string below is one fault away from
    // a valid image.
    for (text, why) in [
        ("AACAPw=", "not a multiple of 4"),
        ("AAC*Pw==", "not base64"),
        ("AAéPw==", "not base64"),
        ("A===AA==", "misplaced `=`"),
        ("AACAPw==AACAPw==AACAPw==", "misplaced `=`"),
        ("AACAPx==", "pad bits"),
        ("AACAPwA=", "not a whole number of f32s"),
    ] {
        for kind in ["verify", "verify_complete"] {
            let message = expect_error(
                &mut client,
                &frame(kind, Value::Str(text.into())),
                ErrorCode::BadRequest,
            );
            assert!(message.contains(why), "{kind} {text}: {message}");
            client.ping().expect("the connection survives a bad image");
        }
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Base64 carries bits no JSON number can: a NaN or an infinite pixel
/// reaches the engine, whose finiteness check answers `bad_query`.
#[test]
fn non_finite_base64_pixels_are_bad_queries() {
    let (dir, handle, mut client) = boot("nonfinite");
    for pixel in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for kind in ["verify", "verify_complete"] {
            let line = frame(kind, wire_image(&[0.5, pixel, 0.5, 0.5]));
            let message = expect_error(&mut client, &line, ErrorCode::BadQuery);
            assert!(message.contains("not a finite number"), "{message}");
            client.ping().expect("the connection survives a bad pixel");
        }
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_image_as_an_array_and_as_base64_gets_the_same_margins() {
    let (dir, handle, mut client) = boot("same");
    for step in 0..6 {
        let image: Vec<f32> = (0..4)
            .map(|i| 0.1 + 0.8 * (((step * 29 + i * 7) % 101) as f32 / 101.0) / 3.0)
            .collect();
        let margins = |reply: Reply| match reply {
            Reply::Verdict { margins, .. } => margins
                .iter()
                .map(|m| (m.adversary, m.lower.to_bits(), m.proven))
                .collect::<Vec<_>>(),
            other => panic!("expected a verdict, got {other:?}"),
        };
        let base64 = wire_image(&image);
        assert!(matches!(base64, Value::Str(_)), "{base64:?}");
        let by_string = margins(client.send_raw(&frame("verify", base64)).unwrap());
        let by_array = margins(client.send_raw(&frame("verify", image.to_value())).unwrap());
        assert_eq!(by_string, by_array, "{image:?}");
        // The client's own path sends the string.
        let verdict = client.verify("tiny", &image, 0, 0.01).unwrap();
        let by_client: Vec<_> = verdict
            .margins
            .iter()
            .map(|m| (m.adversary, m.lower.to_bits(), m.proven))
            .collect();
        assert_eq!(by_client, by_array);
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A frame well under the size limit can nest a hundred thousand arrays
/// deep. Parsed level by level, it would overflow the connection thread's
/// stack, which aborts the daemon; the parser refuses it at its depth limit.
#[test]
fn a_frame_nested_too_deep_is_a_parse_error() {
    let (dir, handle, mut client) = boot("deep");
    for line in [
        "[".repeat(100_000),
        format!("{{\"type\":{}", "[".repeat(100_000)),
    ] {
        let message = expect_error(&mut client, &line, ErrorCode::ParseError);
        assert!(message.contains("nest deeper"), "{message}");
        client.ping().expect("the connection survives a deep frame");
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
