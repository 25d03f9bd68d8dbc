#include "workload/suite.hh"

#include "util/logging.hh"
#include "workload/registry.hh"

namespace mcd::workload
{

namespace
{

using IC = InstrClass;

constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * 1024;

/** Integer mix: no FP at all (FP domain idles). */
InstructionMix
intMix(double ld, double st, double br, std::uint64_t ws, double stream,
       double noise = 0.03)
{
    InstructionMix m;
    m.set(IC::Load, ld).set(IC::Store, st);
    m.branches(br, noise);
    m.mem(ws, stream);
    return m;
}

/** Integer DSP mix with multiplies (adpcm/gsm style). */
InstructionMix
dspMix(double ld, double st, double br, double mul, std::uint64_t ws,
       double stream, double noise = 0.02)
{
    InstructionMix m = intMix(ld, st, br, ws, stream, noise);
    m.set(IC::IntMul, mul);
    return m;
}

/** Floating-point mix (int domain only does bookkeeping). */
InstructionMix
fpMix(double fadd, double fmul, double ld, double st, double br,
      std::uint64_t ws, double stream, double noise = 0.01)
{
    InstructionMix m;
    m.set(IC::FpAdd, fadd).set(IC::FpMul, fmul);
    m.set(IC::Load, ld).set(IC::Store, st);
    m.branches(br, noise);
    m.mem(ws, stream);
    return m;
}

/** Memory-bound mix: large working set, mostly random accesses. */
InstructionMix
memMix(double ld, double st, double br, std::uint64_t ws,
       double stream = 0.15, double noise = 0.08)
{
    InstructionMix m = intMix(ld, st, br, ws, stream, noise);
    m.ilp(0.35, 32);
    return m;
}

InputSet
in(const std::string &name, std::uint64_t seed, double scale)
{
    InputSet s;
    s.name = name;
    s.seed = seed;
    s.scale = scale;
    return s;
}

// ---------------------------------------------------------------------
// MediaBench
// ---------------------------------------------------------------------

/**
 * adpcm: tiny working set, pure-integer DSP kernel dominated by one
 * sample loop.  Loop-level reconfiguration reduces both degradation
 * and savings relative to function level (Section 4.2).
 */
Benchmark
makeAdpcm(bool encode)
{
    ProgramBuilder b(encode ? "adpcm_encode" : "adpcm_decode");
    MixId kernel = b.mix(dspMix(0.22, 0.08, encode ? 0.18 : 0.14,
                                encode ? 0.03 : 0.02, 4 * KB, 0.85,
                                encode ? 0.05 : 0.03));
    MixId setup = b.mix(intMix(0.25, 0.15, 0.10, 8 * KB, 0.9));

    b.func("adpcm_coder");
    b.block(kernel, encode ? 68 : 52);

    b.func("main");
    b.block(setup, 180);
    b.loop(3200, 1.0, [&] { b.call("adpcm_coder"); });
    b.block(setup, 120);

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 11, 1.0);
    bm.ref = in("ref", 12, 1.6);
    return bm;
}

/**
 * epic decode: pyramid reconstruction — FP inverse filtering over a
 * streaming image, then integer write-out.
 */
Benchmark
makeEpicDecode()
{
    ProgramBuilder b("epic_decode");
    MixId huff = b.mix(intMix(0.24, 0.06, 0.20, 64 * KB, 0.6, 0.10));
    MixId filt = b.mix(fpMix(0.24, 0.18, 0.26, 0.10, 0.05, 512 * KB, 0.9));
    MixId emit = b.mix(intMix(0.18, 0.30, 0.08, 256 * KB, 0.95));

    b.func("collapse_pyr");
    b.loop(26, 0.6, [&] { b.block(filt, 450); });

    b.func("unquantize_image");
    b.loop(40, 0.6, [&] { b.block(huff, 300); });

    b.func("read_and_huffman_decode");
    b.loop(30, 0.6, [&] { b.block(huff, 380); });

    b.func("write_pgm_image");
    b.loop(24, 0.6, [&] { b.block(emit, 350); });

    b.func("main");
    b.call("read_and_huffman_decode");
    b.call("unquantize_image");
    b.loop(5, 0.8, [&] { b.call("collapse_pyr"); });
    b.call("write_pgm_image");

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 21, 1.0);
    bm.ref = in("ref", 22, 1.15);
    return bm;
}

/**
 * epic encode: build_level calls internal_filter from six different
 * call sites, each invocation with different behaviour — the paper's
 * example where call-site tracking (L+F+C+P / F+C+P) buys extra
 * energy (Section 4.2).
 */
Benchmark
makeEpicEncode()
{
    ProgramBuilder b("epic_encode");
    MixId conv = b.mix(fpMix(0.26, 0.20, 0.24, 0.08, 0.05, 1 * MB, 0.9));
    MixId quant = b.mix(intMix(0.22, 0.12, 0.14, 256 * KB, 0.8, 0.05));
    MixId huff = b.mix(intMix(0.22, 0.08, 0.22, 64 * KB, 0.5, 0.12));
    MixId setup = b.mix(intMix(0.22, 0.10, 0.10, 64 * KB, 0.9));

    b.func("internal_filter");
    // Six ArgProfiles: low-pass rows/cols, high-pass rows/cols,
    // diagonal, residual — different data shapes per call site.
    b.argProfiles({
        ArgProfile{1.0, 1.0, 0.00, 1.0},
        ArgProfile{0.5, 1.6, 0.00, 1.0},
        ArgProfile{2.0, 0.7, 0.02, 0.6},
        ArgProfile{1.0, 2.2, 0.00, 1.0},
        ArgProfile{4.0, 0.5, 0.04, 0.3},
        ArgProfile{0.25, 1.2, 0.00, 1.0},
    });
    b.loop(30, 0.5, [&] { b.block(conv, 420); });

    b.func("build_level");
    b.call("internal_filter", 0);
    b.call("internal_filter", 1);
    b.call("internal_filter", 2);
    b.call("internal_filter", 3);
    b.call("internal_filter", 4);
    b.call("internal_filter", 5);

    b.func("quantize_image");
    b.loop(35, 0.7, [&] { b.block(quant, 320); });

    b.func("run_length_encode_zeros");
    b.loop(28, 0.7, [&] { b.block(huff, 260); });

    b.func("main");
    b.block(setup, 400);
    b.loop(4, 0.7, [&] { b.call("build_level"); });
    b.call("quantize_image");
    b.call("run_length_encode_zeros");

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 31, 1.0);
    bm.ref = in("ref", 32, 1.1);
    return bm;
}

/**
 * g721: one dominant predictor-update kernel; the call tree has a
 * single long-running node (Table 3).
 */
Benchmark
makeG721(bool encode)
{
    ProgramBuilder b(encode ? "g721_encode" : "g721_decode");
    MixId kernel = b.mix(dspMix(0.24, 0.10, 0.16, 0.05, 8 * KB, 0.8,
                                0.04));
    b.func("main");
    b.loop(4000, 1.0, [&] { b.block(kernel, encode ? 95 : 80); });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", encode ? 41 : 42, 1.0);
    bm.ref = in("ref", encode ? 43 : 44, 1.0);
    return bm;
}

/**
 * gsm: frame loop calling the LPC/LTP filter kernels; very high
 * dynamic reconfiguration counts (Table 4).
 */
Benchmark
makeGsm(bool encode)
{
    ProgramBuilder b(encode ? "gsm_encode" : "gsm_decode");
    MixId lpc = b.mix(dspMix(0.24, 0.08, 0.12, 0.10, 16 * KB, 0.85));
    MixId ltp = b.mix(dspMix(0.26, 0.10, 0.14, 0.06, 32 * KB, 0.7,
                             0.05));
    MixId frame = b.mix(intMix(0.20, 0.12, 0.12, 16 * KB, 0.8));

    MixId rpe = b.mix(dspMix(0.22, 0.10, 0.10, 0.12, 8 * KB, 0.9));

    b.func("short_term_filter");
    b.loop(14, 0.0, [&] { b.block(lpc, 220); });

    b.func("long_term_predictor");
    b.loop(10, 0.0, [&] { b.block(ltp, 200); });

    b.func("rpe_decoding");
    b.loop(8, 0.0, [&] { b.block(rpe, 130); });

    if (encode) {
        b.func("preprocess");
        b.loop(8, 0.0, [&] { b.block(frame, 150); });
    }

    b.func("process_frame");
    if (encode)
        b.call("preprocess");
    b.call("rpe_decoding");
    b.call("long_term_predictor");
    b.call("short_term_filter");
    b.block(frame, 120);

    b.func("main");
    b.loop(55, 1.0, [&] { b.call("process_frame"); });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", encode ? 51 : 52, 1.0);
    bm.ref = in("ref", encode ? 53 : 54, 1.6);
    return bm;
}

/**
 * jpeg: block pipeline — DCT (integer multiplies), quantization,
 * entropy coding.
 */
Benchmark
makeJpeg(bool compress)
{
    ProgramBuilder b(compress ? "jpeg_compress" : "jpeg_decompress");
    MixId dct = b.mix(dspMix(0.22, 0.10, 0.06, 0.16, 32 * KB, 0.85));
    MixId quant = b.mix(intMix(0.24, 0.12, 0.10, 16 * KB, 0.9));
    MixId huff = b.mix(intMix(0.22, 0.08, 0.24, 32 * KB, 0.5, 0.12));
    MixId color = b.mix(dspMix(0.26, 0.14, 0.06, 0.10, 128 * KB, 0.95));

    MixId samp = b.mix(dspMix(0.24, 0.16, 0.08, 0.08, 64 * KB, 0.9));
    MixId marker = b.mix(intMix(0.22, 0.12, 0.14, 8 * KB, 0.8));

    b.func("emit_bits");
    b.block(huff, 70);

    b.func("forward_dct");
    b.loop(9, 0.0, [&] { b.block(dct, 160); });

    b.func("quantize_block");
    b.block(quant, 220);

    b.func("entropy_codec");
    b.block(huff, 120);
    b.call("emit_bits");
    b.block(huff, 80);

    b.func("color_convert_row");
    b.loop(6, 0.0, [&] { b.block(color, 180); });

    b.func("downsample_row");
    b.loop(4, 0.0, [&] { b.block(samp, 120); });

    b.func("process_mcu");
    if (compress) {
        b.call("color_convert_row");
        b.call("downsample_row");
        b.call("forward_dct");
        b.call("quantize_block");
        b.call("entropy_codec");
    } else {
        b.call("entropy_codec");
        b.call("quantize_block");  // dequantize: same code path
        b.call("forward_dct");     // inverse DCT: same kernel shape
        b.call("downsample_row");  // upsampling: same shape
        b.call("color_convert_row");
    }

    b.func("write_markers");
    b.block(marker, 100);

    b.func("main");
    b.call("write_markers");
    b.loop(compress ? 95 : 70, 1.0, [&] { b.call("process_mcu"); });
    b.call("write_markers");

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", compress ? 61 : 62, 1.0);
    bm.ref = in("ref", compress ? 63 : 64, compress ? 2.2 : 2.0);
    return bm;
}

/**
 * mpeg2 decode: the reference input decodes B-frames, exercising call
 * paths that never occur during training (coverage ~0.6 in Table 3;
 * L+F vs path-tracking divergence in Figures 8/9).  The idct helper
 * is reachable over multiple paths.
 */
Benchmark
makeMpeg2Decode()
{
    ProgramBuilder b("mpeg2_decode");
    MixId idctm = b.mix(dspMix(0.22, 0.10, 0.06, 0.15, 32 * KB, 0.85));
    MixId vlc = b.mix(intMix(0.24, 0.06, 0.24, 64 * KB, 0.5, 0.12));
    MixId mc = b.mix(memMix(0.30, 0.14, 0.10, 2 * MB, 0.6));
    MixId hdr = b.mix(intMix(0.20, 0.08, 0.16, 16 * KB, 0.7));

    b.func("idct_block");
    b.loop(8, 0.0, [&] { b.block(idctm, 150); });

    b.func("vlc_decode_block");
    b.block(vlc, 240);

    b.func("motion_compensate");
    b.loop(6, 0.0, [&] { b.block(mc, 180); });

    b.func("decode_intra_mb");
    b.call("vlc_decode_block");
    b.call("idct_block");

    b.func("decode_bpred_mb");
    b.call("vlc_decode_block");
    b.call("motion_compensate");
    b.call("idct_block");  // same helper, different path

    b.func("picture_data");
    b.block(hdr, 120);
    b.loop(22, 0.6, [&] { b.call("decode_intra_mb"); });
    // B-frame macroblocks: never during training, ~40% of reference.
    b.loopK(18, 0.6, "bframes",
            [&] { b.call("decode_bpred_mb", 0, 1.0, "bframe_mb"); });

    b.func("main");
    b.loop(10, 1.0, [&] { b.call("picture_data"); });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 71, 1.0);
    bm.train.with("bframes", 0.06).with("bframe_mb", 0.0);
    bm.ref = in("ref", 72, 1.3);
    bm.ref.with("bframes", 1.0).with("bframe_mb", 0.85);
    return bm;
}

/**
 * mpeg2 encode: motion estimation dominates; subroutines contain
 * multiple long-running loop nests (loop-level reconfiguration gains
 * energy at slight extra slowdown, Section 4.2).
 */
Benchmark
makeMpeg2Encode()
{
    ProgramBuilder b("mpeg2_encode");
    MixId sad = b.mix(memMix(0.34, 0.04, 0.12, 4 * MB, 0.55, 0.06));
    MixId dct = b.mix(dspMix(0.22, 0.10, 0.06, 0.15, 32 * KB, 0.85));
    MixId vlc = b.mix(intMix(0.22, 0.08, 0.22, 64 * KB, 0.5, 0.10));
    MixId pred = b.mix(fpMix(0.12, 0.10, 0.28, 0.10, 0.08, 1 * MB, 0.7));
    MixId hdr = b.mix(intMix(0.20, 0.08, 0.14, 16 * KB, 0.8));

    b.func("fullsearch");
    // Two separate long-running loop nests in one subroutine.
    b.loop(30, 0.5, [&] { b.block(sad, 260); });
    b.loop(22, 0.5, [&] { b.block(sad, 240); });

    b.func("transform_mb");
    b.loop(8, 0.0, [&] { b.block(dct, 150); });

    b.func("rate_control");
    b.block(pred, 200);

    b.func("putpict_vlc");
    b.loop(16, 0.5, [&] { b.block(vlc, 220); });

    b.func("encode_picture");
    b.block(hdr, 150);
    b.loop(9, 0.6, [&] { b.call("fullsearch"); });
    b.loop(14, 0.6, [&] { b.call("transform_mb"); });
    b.call("rate_control");
    b.call("putpict_vlc");

    b.func("main");
    b.loop(6, 1.0, [&] { b.call("encode_picture"); });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 81, 1.0);
    bm.ref = in("ref", 82, 1.25);
    return bm;
}

// ---------------------------------------------------------------------
// SPEC CPU2000
// ---------------------------------------------------------------------

/**
 * gzip: deflate with longest_match inner search; deep-ish call tree
 * with rare paths, training/reference coverage ~0.93.
 */
Benchmark
makeGzip()
{
    ProgramBuilder b("gzip");
    MixId match = b.mix(intMix(0.30, 0.04, 0.22, 256 * KB, 0.35, 0.10));
    MixId window = b.mix(intMix(0.26, 0.20, 0.08, 512 * KB, 0.95));
    MixId tree = b.mix(intMix(0.22, 0.10, 0.20, 64 * KB, 0.4, 0.10));
    MixId crc = b.mix(intMix(0.28, 0.06, 0.06, 32 * KB, 0.98));
    MixId io = b.mix(intMix(0.22, 0.22, 0.10, 128 * KB, 0.95));

    b.func("longest_match");
    b.loop(12, 0.3, [&] { b.block(match, 90); });

    b.func("fill_window");
    b.loop(8, 0.3, [&] { b.block(window, 160); });

    b.func("updcrc");
    b.block(crc, 140);

    b.func("build_tree");
    b.loop(6, 0.0, [&] { b.block(tree, 180); });

    b.func("compress_block");
    b.call("build_tree");
    b.loop(10, 0.4, [&] { b.block(tree, 150); });

    b.func("flush_block");
    b.call("compress_block");
    b.block(io, 120);

    b.func("deflate");
    b.loop(60, 1.0, [&] {
        b.call("longest_match");
        b.call("fill_window", 0, 0.45);
        b.call("updcrc", 0, 0.6);
        // Stored/ascii side paths occur rarely and differ by input.
        b.call("flush_block", 0, 0.3);
    });
    b.call("flush_block");

    b.func("file_read");
    b.loop(5, 0.5, [&] { b.block(io, 200); });

    b.func("main");
    b.call("file_read");
    b.call("deflate");
    b.call("file_read", 0, 0.5);
    b.call("deflate", 0, 0.5);

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 91, 1.0);
    bm.ref = in("ref", 92, 1.8);
    return bm;
}

/**
 * vpr: training exercises placement, reference mostly routing — the
 * two runs share almost no long-running nodes (coverage ~0.1 in
 * Table 3).
 */
Benchmark
makeVpr()
{
    ProgramBuilder b("vpr");
    MixId swap = b.mix(intMix(0.26, 0.10, 0.18, 1 * MB, 0.3, 0.10));
    MixId cost = b.mix(fpMix(0.18, 0.12, 0.24, 0.06, 0.10, 512 * KB,
                             0.4));
    MixId maze = b.mix(memMix(0.32, 0.12, 0.14, 8 * MB, 0.25, 0.08));
    MixId heap = b.mix(intMix(0.26, 0.14, 0.20, 256 * KB, 0.3, 0.10));
    MixId util = b.mix(intMix(0.22, 0.10, 0.12, 64 * KB, 0.7));

    b.func("check_graph");  // shared utility, long-running in both
    b.loop(18, 0.5, [&] { b.block(util, 160); });

    b.func("comp_delta_cost");
    b.loop(6, 0.0, [&] { b.block(cost, 120); });

    b.func("try_swap");
    b.block(swap, 180);
    b.call("comp_delta_cost");

    b.func("try_place");
    b.loopK(120, 1.0, "place_iters", [&] { b.call("try_swap"); });

    b.func("add_to_heap");
    b.block(heap, 90);

    b.func("expand_neighbours");
    b.loop(5, 0.0, [&] { b.block(maze, 110); });
    b.call("add_to_heap");

    b.func("route_net");
    b.loopK(90, 1.0, "route_iters", [&] { b.call("expand_neighbours"); });

    b.func("main");
    b.call("check_graph");
    // The two phases are input-gated: the training input places, the
    // reference input routes, so the two call trees share almost no
    // nodes (Table 3's vpr coverage ~0.1).
    b.loop(3, 0.0, [&] {
        b.call("try_place", 0, 1.0, "do_place");
        b.call("route_net", 0, 1.0, "do_route");
    });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 101, 1.0);
    bm.train.with("do_place", 1.0).with("do_route", 0.01)
        .with("place_iters", 0.4).with("route_iters", 0.4);
    bm.ref = in("ref", 102, 1.3);
    bm.ref.with("do_place", 0.01).with("do_route", 1.0)
        .with("place_iters", 0.4).with("route_iters", 0.6);
    return bm;
}

/**
 * mcf: network simplex — pointer chasing over a many-megabyte arc
 * array; heavily memory bound, FP idle.
 */
Benchmark
makeMcf()
{
    ProgramBuilder b("mcf");
    MixId chase = b.mix(memMix(0.38, 0.06, 0.16, 24 * MB, 0.1, 0.07));
    MixId price = b.mix(memMix(0.32, 0.12, 0.14, 16 * MB, 0.35));
    MixId basket = b.mix(intMix(0.24, 0.12, 0.18, 512 * KB, 0.5, 0.08));

    MixId tree_up = b.mix(memMix(0.34, 0.10, 0.14, 12 * MB, 0.2));
    MixId flow = b.mix(memMix(0.30, 0.16, 0.12, 8 * MB, 0.3));

    b.func("refresh_potential");
    b.loop(10, 0.5, [&] { b.block(chase, 200); });

    b.func("price_out_impl");
    b.loop(12, 0.5, [&] { b.block(price, 220); });

    b.func("primal_bea_mpp");
    b.loop(8, 0.5, [&] { b.block(basket, 180); });

    b.func("update_tree");
    b.loop(6, 0.4, [&] { b.block(tree_up, 160); });

    b.func("primal_iminus");
    b.block(flow, 140);

    b.func("flow_cost");
    b.loop(7, 0.5, [&] { b.block(flow, 150); });

    b.func("primal_net_simplex");
    b.loop(20, 1.0, [&] {
        b.call("primal_bea_mpp");
        b.call("primal_iminus", 0, 0.7);
        b.call("update_tree", 0, 0.7);
        b.call("refresh_potential", 0, 0.4);
        b.call("price_out_impl", 0, 0.6);
    });

    b.func("main");
    b.call("primal_net_simplex");
    b.call("flow_cost");

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 111, 1.0);
    bm.ref = in("ref", 112, 1.5);
    return bm;
}

/**
 * swim: shallow-water stencil loops; the reference grid promotes
 * extra loops over the 10k-instruction threshold, so training nodes
 * are a strict subset of reference nodes (Table 3).
 */
Benchmark
makeSwim()
{
    ProgramBuilder b("swim");
    MixId stencil = b.mix(fpMix(0.28, 0.18, 0.26, 0.10, 0.04, 8 * MB,
                                0.97));
    MixId small = b.mix(fpMix(0.24, 0.14, 0.24, 0.12, 0.06, 1 * MB,
                              0.95));

    b.func("calc1");
    b.loopK(40, 0.7, "grid", [&] { b.block(stencil, 300); });

    b.func("calc2");
    b.loopK(38, 0.7, "grid", [&] { b.block(stencil, 320); });

    b.func("calc3");
    // Two nests; the second is short on the training grid and only
    // crosses the 10k threshold on the reference grid.
    b.loopK(36, 0.7, "grid", [&] { b.block(stencil, 280); });
    b.loopK(14, 0.7, "grid", [&] { b.block(small, 60); });

    b.func("smooth");
    b.loopK(12, 0.7, "grid", [&] { b.block(small, 70); });

    b.func("main");
    b.loop(8, 1.0, [&] {
        b.call("calc1");
        b.call("calc2");
        b.call("calc3");
        b.call("smooth", 0, 0.5);
    });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 121, 1.0);
    bm.train.with("grid", 0.55);
    bm.ref = in("ref", 122, 1.2);
    bm.ref.with("grid", 1.5);
    return bm;
}

/**
 * applu: SSOR solver; five subroutines each with more than one
 * long-running loop nest — loop-level reconfiguration executes ~3
 * orders of magnitude more often than function level (Section 4.2).
 */
Benchmark
makeApplu()
{
    ProgramBuilder b("applu");
    MixId lower = b.mix(fpMix(0.30, 0.22, 0.24, 0.08, 0.03, 4 * MB,
                              0.95));
    MixId upper = b.mix(fpMix(0.28, 0.24, 0.24, 0.08, 0.03, 4 * MB,
                              0.95));
    MixId rhsm = b.mix(fpMix(0.26, 0.18, 0.28, 0.10, 0.04, 6 * MB,
                             0.96));

    MixId norm = b.mix(fpMix(0.30, 0.16, 0.26, 0.06, 0.04, 2 * MB,
                             0.96));
    MixId bc = b.mix(fpMix(0.22, 0.14, 0.26, 0.14, 0.05, 1 * MB,
                           0.95));

    b.func("exact");
    b.block(bc, 90);

    b.func("jacld");
    b.loop(26, 0.6, [&] { b.block(lower, 240); });
    b.loop(20, 0.6, [&] { b.block(lower, 200); });
    b.loop(12, 0.6, [&] { b.block(lower, 120); });

    b.func("blts");
    b.loop(24, 0.6, [&] { b.block(lower, 230); });
    b.loop(18, 0.6, [&] { b.block(lower, 190); });

    b.func("jacu");
    b.loop(26, 0.6, [&] { b.block(upper, 240); });
    b.loop(20, 0.6, [&] { b.block(upper, 200); });
    b.loop(12, 0.6, [&] { b.block(upper, 120); });

    b.func("buts");
    b.loop(24, 0.6, [&] { b.block(upper, 230); });
    b.loop(18, 0.6, [&] { b.block(upper, 190); });

    b.func("rhs");
    b.loop(22, 0.6, [&] { b.block(rhsm, 260); });
    b.loop(16, 0.6, [&] { b.block(rhsm, 210); });
    b.loop(14, 0.6, [&] { b.block(rhsm, 160); });

    b.func("l2norm");
    b.loop(10, 0.6, [&] { b.block(norm, 140); });

    b.func("setbv");
    b.loop(6, 0.4, [&] {
        b.block(bc, 80);
        b.call("exact");
    });

    b.func("ssor");
    b.call("jacld");
    b.call("blts");
    b.call("jacu");
    b.call("buts");
    b.call("rhs");
    b.call("l2norm", 0, 0.5);

    b.func("main");
    b.call("setbv");
    b.loop(5, 1.0, [&] { b.call("ssor"); });
    b.call("l2norm");

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 131, 1.0);
    bm.ref = in("ref", 132, 1.3);
    return bm;
}

/**
 * art: neural-net image matching; the core computation is one loop
 * with seven sub-loops (Section 4.2).
 */
Benchmark
makeArt()
{
    ProgramBuilder b("art");
    MixId f1 = b.mix(fpMix(0.26, 0.22, 0.28, 0.06, 0.04, 12 * MB,
                           0.9));
    MixId f2 = b.mix(fpMix(0.30, 0.16, 0.26, 0.08, 0.04, 8 * MB,
                           0.92));
    MixId cmp = b.mix(fpMix(0.20, 0.12, 0.30, 0.04, 0.10, 4 * MB,
                            0.85, 0.04));

    b.func("compute_train_match");
    b.loop(6, 0.7, [&] {
        b.loop(8, 0.4, [&] { b.block(f1, 180); });
        b.loop(7, 0.4, [&] { b.block(f1, 160); });
        b.loop(8, 0.4, [&] { b.block(f2, 170); });
        b.loop(6, 0.4, [&] { b.block(f2, 150); });
        b.loop(7, 0.4, [&] { b.block(f1, 140); });
        b.loop(6, 0.4, [&] { b.block(cmp, 130); });
        b.loop(5, 0.4, [&] { b.block(cmp, 120); });
    });

    b.func("reset_nodes");
    b.block(cmp, 90);

    b.func("compute_values_match");
    b.loop(5, 0.5, [&] {
        b.loop(6, 0.4, [&] { b.block(f1, 150); });
        b.loop(5, 0.4, [&] { b.block(f2, 140); });
    });

    b.func("match");
    b.call("reset_nodes");
    b.call("compute_train_match");
    b.call("compute_values_match");
    b.block(cmp, 100);

    b.func("main");
    b.loop(7, 1.0, [&] { b.call("match"); });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 141, 1.0);
    bm.ref = in("ref", 142, 1.4);
    return bm;
}

/**
 * equake: sparse matrix-vector product inside a time-step loop;
 * stable call tree across inputs.
 */
Benchmark
makeEquake()
{
    ProgramBuilder b("equake");
    MixId smvp = b.mix(fpMix(0.26, 0.20, 0.30, 0.06, 0.05, 10 * MB,
                             0.45));
    MixId tstep = b.mix(fpMix(0.28, 0.16, 0.24, 0.12, 0.04, 2 * MB,
                              0.9));

    MixId phi = b.mix(fpMix(0.26, 0.22, 0.22, 0.06, 0.06, 512 * KB,
                            0.8));
    MixId disp = b.mix(fpMix(0.24, 0.14, 0.28, 0.12, 0.04, 4 * MB,
                             0.92));

    b.func("phi0");
    b.block(phi, 60);
    b.func("phi1");
    b.block(phi, 70);
    b.func("phi2");
    b.block(phi, 65);

    b.func("smvp");
    b.loop(30, 0.7, [&] { b.block(smvp, 240); });

    b.func("time_integration");
    b.block(tstep, 130);
    b.call("phi0");
    b.call("phi1");
    b.call("phi2");
    b.block(tstep, 130);

    b.func("disp_update");
    b.loop(8, 0.6, [&] { b.block(disp, 150); });

    b.func("main");
    b.loop(12, 1.0, [&] {
        b.call("smvp");
        b.call("time_integration");
        b.call("disp_update");
    });

    Benchmark bm;
    bm.program = b.build("main");
    bm.train = in("train", 151, 1.0);
    bm.ref = in("ref", 152, 1.5);
    return bm;
}

} // namespace

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "adpcm_decode", "adpcm_encode",
        "epic_decode", "epic_encode",
        "g721_decode", "g721_encode",
        "gsm_decode", "gsm_encode",
        "jpeg_compress", "jpeg_decompress",
        "mpeg2_decode", "mpeg2_encode",
        "gzip", "vpr", "mcf",
        "swim", "applu", "art", "equake",
    };
    return names;
}

namespace detail
{

Benchmark
buildSuiteBenchmark(const std::string &name)
{
    if (name == "adpcm_decode") return makeAdpcm(false);
    if (name == "adpcm_encode") return makeAdpcm(true);
    if (name == "epic_decode") return makeEpicDecode();
    if (name == "epic_encode") return makeEpicEncode();
    if (name == "g721_decode") return makeG721(false);
    if (name == "g721_encode") return makeG721(true);
    if (name == "gsm_decode") return makeGsm(false);
    if (name == "gsm_encode") return makeGsm(true);
    if (name == "jpeg_compress") return makeJpeg(true);
    if (name == "jpeg_decompress") return makeJpeg(false);
    if (name == "mpeg2_decode") return makeMpeg2Decode();
    if (name == "mpeg2_encode") return makeMpeg2Encode();
    if (name == "gzip") return makeGzip();
    if (name == "vpr") return makeVpr();
    if (name == "mcf") return makeMcf();
    if (name == "swim") return makeSwim();
    if (name == "applu") return makeApplu();
    if (name == "art") return makeArt();
    if (name == "equake") return makeEquake();
    panic("'%s' is not a suite benchmark", name.c_str());
}

const char *
suiteDescription(const std::string &name)
{
    if (name == "adpcm_decode")
        return "MediaBench adpcm decode: tiny-footprint integer "
               "DSP sample loop";
    if (name == "adpcm_encode")
        return "MediaBench adpcm encode: tiny-footprint integer "
               "DSP sample loop";
    if (name == "epic_decode")
        return "MediaBench epic decode: FP pyramid reconstruction "
               "+ integer write-out";
    if (name == "epic_encode")
        return "MediaBench epic encode: internal_filter from six "
               "call sites (context-sensitive)";
    if (name == "g721_decode")
        return "MediaBench g721 decode: one dominant "
               "predictor-update kernel";
    if (name == "g721_encode")
        return "MediaBench g721 encode: one dominant "
               "predictor-update kernel";
    if (name == "gsm_decode")
        return "MediaBench gsm decode: per-frame LPC/LTP filter "
               "phases";
    if (name == "gsm_encode")
        return "MediaBench gsm encode: per-frame LPC/LTP filter "
               "phases";
    if (name == "jpeg_compress")
        return "MediaBench jpeg compress: DCT/quantize/entropy "
               "block pipeline";
    if (name == "jpeg_decompress")
        return "MediaBench jpeg decompress: entropy/dequantize/IDCT "
               "block pipeline";
    if (name == "mpeg2_decode")
        return "MediaBench mpeg2 decode: B-frame paths unseen "
               "during training";
    if (name == "mpeg2_encode")
        return "MediaBench mpeg2 encode: motion-estimation loop "
               "nests dominate";
    if (name == "gzip")
        return "SPEC gzip: deflate with longest_match search, rare "
               "side paths";
    if (name == "vpr")
        return "SPEC vpr: training places, reference routes "
               "(coverage ~0.1)";
    if (name == "mcf")
        return "SPEC mcf: pointer-chasing network simplex, memory "
               "bound";
    if (name == "swim")
        return "SPEC swim: FP shallow-water stencils, "
               "grid-dependent node set";
    if (name == "applu")
        return "SPEC applu: SSOR solver, multiple loop nests per "
               "subroutine";
    if (name == "art")
        return "SPEC art: neural-net matching, one loop with seven "
               "sub-loops";
    if (name == "equake")
        return "SPEC equake: sparse matrix-vector product, stable "
               "call tree";
    panic("'%s' is not a suite benchmark", name.c_str());
}

} // namespace detail

} // namespace mcd::workload
