//! # mm-http — HTTP/1.1 for record-and-replay
//!
//! Message model ([`message`]), ordered case-insensitive headers
//! ([`headers`]), incremental push parsers for request and response streams
//! ([`parser`]) and wire serialization ([`serialize`]).
//!
//! The RecordShell proxy, ReplayShell servers, and the browser model all
//! speak HTTP through this crate, so parse∘serialize round-trip fidelity is
//! covered by both unit and property tests.

pub mod headers;
pub mod message;
pub mod parser;
pub mod serialize;
pub mod url;

pub use headers::{Decimal, Header, HeaderMap};
pub use message::{Method, Request, Response, Version};
pub use parser::{Completed, ParseError, RequestParser, ResponseParser};
pub use serialize::{
    chunk_body, write_request, write_request_fields, write_response, write_response_fields,
    write_response_parts,
};
pub use url::{Url, UrlParseError};
