//! # mm-mux — an HTTP/2-style multiplexed transport
//!
//! The paper's SPDY case study loads the same recorded pages over HTTP/1.1
//! and a multiplexed transport under identical emulated conditions. This
//! crate is that multiplexed transport, rebuilt over the simulated TCP in
//! `mm-net`: one connection per origin carries every request as an
//! independent *stream*, with binary framing ([`frame`]), per-stream and
//! per-connection flow control ([`flow`]), a configurable cap on concurrent
//! streams, and a simple priority scheme (the root document preempts
//! subresources).
//!
//! Wire model (HTTP/2 §4 shape, simplified):
//!
//! ```text
//! frame  = length(3, payload bytes) type(1) flags(1) stream-id(4) payload
//! types  = DATA 0x0 | HEADERS 0x1 | SETTINGS 0x4 | WINDOW_UPDATE 0x8
//! flags  = END_STREAM 0x1
//! ```
//!
//! Only DATA frames are flow controlled, in the server→client direction
//! (responses dwarf requests in the page-load workload). The client
//! replenishes windows with WINDOW_UPDATE once half the window has been
//! consumed, so a response larger than `initial_stream_window` stalls for
//! an RTT mid-transfer — the same behaviour real HTTP/2 deployments tune
//! around.
//!
//! [`client::MuxClient`] is the browser side; [`server::MuxServerConn`] is
//! the replay-server side; both speak the codec in [`frame`].

pub mod client;
pub mod flow;
pub mod frame;
pub mod server;

pub use client::{MuxClient, MuxOwner};
pub use frame::{DecodeError, Frame, FrameDecoder};
pub use server::{MuxHandler, MuxResponder, MuxServerConn};

/// Multiplexed-transport knobs, shared by both endpoints of a connection.
///
/// The harness hands the same config to the browser and the replay
/// servers, mirroring how the paper's SPDY study deploys one protocol
/// build on both sides of the emulated path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxConfig {
    /// Cap on streams a client may have open at once on one connection
    /// (SPDY and HTTP/2 deployments of the era advertised 32–128).
    pub max_concurrent_streams: u32,
    /// Flow-control window per stream, bytes of DATA.
    pub initial_stream_window: u64,
    /// Flow-control window for the whole connection, bytes of DATA.
    pub connection_window: u64,
    /// Largest DATA payload the sender will put in one frame. Smaller
    /// frames interleave streams more fairly at the cost of header
    /// overhead (HTTP/2's default is 16 KiB).
    pub frame_max_data: usize,
    /// Initial congestion window (in segments) for the *servers* of a
    /// mux deployment; `None` keeps the host TCP default (IW10). SPDY-era
    /// deployments raised server IW — Google's SPDY experiments ran
    /// IW32 — because one multiplexed connection must match the burst
    /// capacity of a browser's six parallel connections. The default
    /// models that deployed stack; set `None` for a stock-TCP ablation.
    pub server_initial_cwnd_segments: Option<u32>,
}

impl MuxConfig {
    /// The SETTINGS frame advertising these limits to the peer.
    pub(crate) fn settings(&self) -> bytes::Bytes {
        let window = |bytes: u64| bytes.min(u32::MAX as u64) as u32;
        Frame::Settings {
            max_concurrent_streams: self.max_concurrent_streams,
            initial_window: window(self.initial_stream_window),
            connection_window: window(self.connection_window),
        }
        .encode()
    }
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            max_concurrent_streams: 32,
            initial_stream_window: 512 * 1024,
            connection_window: 2 * 1024 * 1024,
            frame_max_data: 16 * 1024,
            server_initial_cwnd_segments: Some(32),
        }
    }
}

/// Stream priority carried in HEADERS: lower values are served first.
/// The browser marks the root document [`PRIORITY_ROOT`], discovery-
/// bearing subresources (markup, styles, scripts) [`PRIORITY_SUBRESOURCE`],
/// and leaf content (images, fonts, media) [`PRIORITY_BULK`] — the
/// resource-class scheme SPDY-era browsers used, because serving
/// scannable resources first unblocks further discovery.
pub const PRIORITY_ROOT: u8 = 0;
/// Priority of subresources that can reference further resources.
pub const PRIORITY_SUBRESOURCE: u8 = 1;
/// Priority of leaf content that references nothing.
pub const PRIORITY_BULK: u8 = 2;
