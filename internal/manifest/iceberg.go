package manifest

import (
	"encoding/json"
	"fmt"
)

// Iceberg-format publishing. The paper (5.4, footnote 1) publishes Delta
// today and plans "APIs of all major formats through metadata converters
// such as Delta UniForm and OneTable"; this file implements the Iceberg
// converter: a committed Polaris snapshot renders as an Iceberg
// table-metadata document plus a manifest-list equivalent. The structures
// follow Iceberg's v2 metadata JSON shape closely enough for structural
// interop tests, without the Avro encoding of real manifest files.

// IcebergDataFile describes one data file in an Iceberg manifest.
type IcebergDataFile struct {
	FilePath        string `json:"file_path"`
	FileFormat      string `json:"file_format"`
	RecordCount     int64  `json:"record_count"`
	FileSizeInBytes int64  `json:"file_size_in_bytes"`
	// Content 0 = data, 1 = position deletes (the DV stand-in).
	Content        int    `json:"content"`
	ReferencedFile string `json:"referenced_data_file,omitempty"`
	// Partition is the file's distribution cell, null for a file of mixed
	// cells.
	Partition *int `json:"partition"`
}

// IcebergSnapshot is one snapshot entry of the table metadata.
type IcebergSnapshot struct {
	SnapshotID       int64             `json:"snapshot-id"`
	SequenceNumber   int64             `json:"sequence-number"`
	TimestampMs      int64             `json:"timestamp-ms"`
	Summary          map[string]string `json:"summary"`
	ManifestListPath string            `json:"manifest-list"`
}

// IcebergMetadata is the table-metadata document.
type IcebergMetadata struct {
	FormatVersion     int               `json:"format-version"`
	TableUUID         string            `json:"table-uuid"`
	Location          string            `json:"location"`
	LastSequenceNum   int64             `json:"last-sequence-number"`
	CurrentSnapshotID int64             `json:"current-snapshot-id"`
	Snapshots         []IcebergSnapshot `json:"snapshots"`
}

// ToIcebergManifestList renders a snapshot's live files (and their deletion
// vectors as position-delete entries) as an Iceberg manifest-list body.
func ToIcebergManifestList(state *TableState) []byte {
	var files []IcebergDataFile
	for _, f := range state.LiveFiles() {
		var partition *int
		if f.Partition != MixedCells {
			partition = &f.Partition
		}
		files = append(files, IcebergDataFile{
			FilePath: f.Path, FileFormat: "PARQUET",
			RecordCount: f.Rows, FileSizeInBytes: f.Size,
			Content: 0, Partition: partition,
		})
		if f.DV != "" {
			files = append(files, IcebergDataFile{
				FilePath: f.DV, FileFormat: "PARQUET",
				RecordCount: f.DeletedRows, Content: 1,
				ReferencedFile: f.Path, Partition: partition,
			})
		}
	}
	data, _ := json.MarshalIndent(files, "", "  ") // no unencodable values
	return data
}

// ToIcebergMetadata renders the table-metadata document for a snapshot chain.
func ToIcebergMetadata(tableID int64, location string, snaps []IcebergSnapshot) []byte {
	var last, current int64
	for _, s := range snaps {
		if s.SequenceNumber > last {
			last = s.SequenceNumber
			current = s.SnapshotID
		}
	}
	md := IcebergMetadata{
		FormatVersion:   2,
		TableUUID:       fmt.Sprintf("polaris-table-%d", tableID),
		Location:        location,
		LastSequenceNum: last, CurrentSnapshotID: current,
		Snapshots: snaps,
	}
	data, _ := json.MarshalIndent(md, "", "  ")
	return data
}

// IcebergManifestListName returns the manifest-list path for a sequence.
func IcebergManifestListName(seq int64) string {
	return fmt.Sprintf("metadata/snap-%020d.json", seq)
}

// IcebergMetadataName returns the versioned metadata file path.
func IcebergMetadataName(version int64) string {
	return fmt.Sprintf("metadata/v%d.metadata.json", version)
}

// ParseIcebergManifestList decodes a published manifest list.
func ParseIcebergManifestList(data []byte) ([]IcebergDataFile, error) {
	var out []IcebergDataFile
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("manifest: parse iceberg manifest list: %w", err)
	}
	return out, nil
}

// ParseIcebergMetadata decodes a published metadata document.
func ParseIcebergMetadata(data []byte) (*IcebergMetadata, error) {
	var out IcebergMetadata
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("manifest: parse iceberg metadata: %w", err)
	}
	return &out, nil
}
