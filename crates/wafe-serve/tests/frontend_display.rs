//! Frontend mode runs its one session on the server's scheduler, so it
//! answers `%display attach` as a served session does: the frames go to
//! the session's peer — here the backend — as `!display frame` lines.

use std::time::Duration;

use wafe_serve::{Frontend, FrontendConfig};

#[test]
fn display_frames_reach_the_backend() {
    let script = r#"
        echo '%display attach'
        echo '%label hello topLevel label hi'
        echo '%realize'
        read frame
        case "$frame" in '!display frame '*) echo '%set got_frame 1';; esac
        sleep 5
    "#;
    let mut fe = Frontend::spawn(FrontendConfig {
        args: vec!["-c".into(), script.into()],
        mass_channel: false,
        ..FrontendConfig::new("sh")
    })
    .expect("spawn sh");
    for _ in 0..500 {
        if fe.engine().session.interp.var_exists("got_frame") {
            break;
        }
        fe.step(Duration::from_millis(10)).unwrap();
    }
    assert!(fe.engine().session.interp.var_exists("got_frame"));
    fe.kill();
}
