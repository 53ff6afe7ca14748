/* Stock-decoder oracle for the tests: read a JFIF stream on stdin, decode
 * it with the system libjpeg and write the raster to stdout as binary PPM
 * (P6).  libjpeg's default error handler exits with status 1 on a stream
 * it cannot decode; a stream that decodes only with corrupt-data warnings
 * exits with status 3.
 *
 * Build: gcc -O2 -o refdecode refdecode.c -ljpeg
 */
#include <stdio.h>
#include <stdlib.h>

#include <jpeglib.h>

int main(void) {
    size_t cap = 1 << 20, len = 0, n;
    unsigned char *in = malloc(cap);
    while (in && (n = fread(in + len, 1, cap - len, stdin)) > 0) {
        len += n;
        if (len == cap)
            in = realloc(in, cap *= 2);
    }
    if (!in)
        return 2;

    struct jpeg_decompress_struct cinfo;
    struct jpeg_error_mgr jerr;
    cinfo.err = jpeg_std_error(&jerr);
    jpeg_create_decompress(&cinfo);
    jpeg_mem_src(&cinfo, in, len);
    jpeg_read_header(&cinfo, TRUE);
    jpeg_start_decompress(&cinfo);
    size_t stride = (size_t)cinfo.output_width * cinfo.output_components;
    unsigned char *out = malloc(stride * cinfo.output_height);
    if (!out)
        return 2;
    while (cinfo.output_scanline < cinfo.output_height) {
        JSAMPROW row = out + stride * cinfo.output_scanline;
        jpeg_read_scanlines(&cinfo, &row, 1);
    }
    jpeg_finish_decompress(&cinfo);
    if (jerr.num_warnings)
        return 3;

    printf("P6\n%u %u\n255\n", cinfo.output_width, cinfo.output_height);
    fwrite(out, 1, stride * cinfo.output_height, stdout);
    jpeg_destroy_decompress(&cinfo);
    free(out);
    free(in);
    return 0;
}
