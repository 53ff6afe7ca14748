/* Stock-encoder oracle for the tests: read a binary PPM (P6, maxval 255) on
 * stdin, compress it with the system libjpeg and write the JFIF stream to
 * stdout.  The stream is baseline sequential 4:4:4 with the standard
 * Huffman tables unless an option says otherwise:
 *
 *   refencode QUALITY [420] [restart=ROWS] [progressive] [crtable] [optimize]
 *
 *   420           2x2 luma sampling (4:2:0)
 *   restart=ROWS  a restart marker every ROWS MCU rows
 *   progressive   libjpeg's default progressive scan script
 *   crtable       Cr quantized with its own table, a copy of the luma one
 *   optimize      Huffman tables optimized for the image (optimize_coding)
 *
 * Exits with status 1 on a bad argument or a libjpeg error, 2 on bad input.
 *
 * Build: gcc -O2 -o refencode refencode.c -ljpeg
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include <jpeglib.h>

int main(int argc, char **argv) {
    unsigned width, height, maxval;
    if (argc < 2) {
        fprintf(stderr, "usage: refencode QUALITY [420] [restart=ROWS] [progressive] [crtable]"
                        " [optimize]\n");
        return 1;
    }
    if (scanf("P6 %u %u %u", &width, &height, &maxval) != 3 || maxval != 255
        || getchar() == EOF || width == 0 || height == 0)
        return 2;
    size_t stride = (size_t)width * 3;
    unsigned char *pixels = malloc(stride * height);
    if (!pixels || fread(pixels, 1, stride * height, stdin) != stride * height)
        return 2;

    struct jpeg_compress_struct cinfo;
    struct jpeg_error_mgr jerr;
    cinfo.err = jpeg_std_error(&jerr);
    jpeg_create_compress(&cinfo);
    jpeg_stdio_dest(&cinfo, stdout);
    cinfo.image_width = width;
    cinfo.image_height = height;
    cinfo.input_components = 3;
    cinfo.in_color_space = JCS_RGB;
    jpeg_set_defaults(&cinfo);
    jpeg_set_quality(&cinfo, atoi(argv[1]), TRUE);
    int luma_sampling = 1;
    for (int i = 2; i < argc; i++) {
        if (!strcmp(argv[i], "420")) {
            luma_sampling = 2;
        } else if (!strncmp(argv[i], "restart=", 8)) {
            cinfo.restart_in_rows = atoi(argv[i] + 8);
        } else if (!strcmp(argv[i], "progressive")) {
            jpeg_simple_progression(&cinfo);
        } else if (!strcmp(argv[i], "crtable")) {
            JQUANT_TBL *table = jpeg_alloc_quant_table((j_common_ptr)&cinfo);
            memcpy(table->quantval, cinfo.quant_tbl_ptrs[0]->quantval, sizeof table->quantval);
            cinfo.quant_tbl_ptrs[2] = table;
            cinfo.comp_info[2].quant_tbl_no = 2;
        } else if (!strcmp(argv[i], "optimize")) {
            cinfo.optimize_coding = TRUE;
        } else {
            fprintf(stderr, "refencode: unknown option %s\n", argv[i]);
            return 1;
        }
    }
    cinfo.comp_info[0].h_samp_factor = luma_sampling;
    cinfo.comp_info[0].v_samp_factor = luma_sampling;

    jpeg_start_compress(&cinfo, TRUE);
    while (cinfo.next_scanline < cinfo.image_height) {
        JSAMPROW row = pixels + stride * cinfo.next_scanline;
        jpeg_write_scanlines(&cinfo, &row, 1);
    }
    jpeg_finish_compress(&cinfo);
    jpeg_destroy_compress(&cinfo);
    free(pixels);
    return 0;
}
