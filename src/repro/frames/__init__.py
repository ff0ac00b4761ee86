"""Frames: capture, compression, storage-by-reference, and pacing."""

from .codec import (
    DECODE_NS_PER_PIXEL,
    ENCODE_NS_PER_PIXEL,
    EncodedFrame,
    decode_frame,
    encode_frame,
    jpeg_bits_per_pixel,
    jpeg_size_model,
    psnr,
)
from .digest import content_digest
from .frame import FrameRef, VideoFrame
from .framestore import EVICTED, MIGRATED, RELEASED, FrameStore
from .synthetic import (
    detect_foreground_bbox,
    foreground_fraction,
    render_pose,
    scale_pose,
)
from .video_source import SyntheticCamera, VideoSource

__all__ = [
    "DECODE_NS_PER_PIXEL",
    "ENCODE_NS_PER_PIXEL",
    "EVICTED",
    "EncodedFrame",
    "MIGRATED",
    "RELEASED",
    "FrameRef",
    "FrameStore",
    "SyntheticCamera",
    "VideoFrame",
    "VideoSource",
    "content_digest",
    "decode_frame",
    "detect_foreground_bbox",
    "encode_frame",
    "foreground_fraction",
    "jpeg_bits_per_pixel",
    "jpeg_size_model",
    "psnr",
    "render_pose",
    "scale_pose",
]
